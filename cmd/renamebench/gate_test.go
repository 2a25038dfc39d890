package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// jsonEdit replaces the value at path in a JSON document.
type jsonEdit struct {
	path []any // object keys (string) and array indices (int)
	val  any
}

// gateBump is one gated cell of a checked-in baseline: the JSON path to
// its value, the tolerance and slack the gate allows it, and the name a
// regression error must give the cell.
type gateBump struct {
	path  []any // object keys (string) and array indices (int)
	tol   float64
	slack float64
	names string
}

// gatePins fixes, per checked-in baseline, how many cells the file
// compares against itself and one gated cell per metric. The tolerances
// are written out as numbers, not read from the code, so a changed bound
// fails here.
var gatePins = []struct {
	bench string // "bench1" .. "bench6"
	file  string
	cells int
	bumps []gateBump
	// disjoint empties the file's gated cells; used as the baseline, it
	// overlaps nothing.
	disjoint []jsonEdit
}{
	{
		bench: "bench1", file: "BENCH_1.json", cells: 12,
		bumps: []gateBump{
			{path: []any{"results", 0, "steps_per_proc_max"}, tol: 0.05, names: "E2 n=1024"},
		},
		disjoint: []jsonEdit{{[]any{"results"}, []any{}}},
	},
	{
		bench: "bench2", file: "BENCH_2.json", cells: 8,
		bumps: []gateBump{
			{path: []any{"results", 0, "steps_per_acquire"}, tol: 0.10, names: "level-array n=256"},
		},
		disjoint: []jsonEdit{{[]any{"results"}, []any{}}},
	},
	{
		bench: "bench3", file: "BENCH_3.json", cells: 14,
		bumps: []gateBump{
			{path: []any{"results", 8, "steps_per_acquire"}, tol: 0.35, slack: 1.0, names: "sharded shards=8 g=16"},
		},
		disjoint: []jsonEdit{{[]any{"results"}, []any{}}},
	},
	{
		bench: "bench5", file: "BENCH_5.json", cells: 9,
		bumps: []gateBump{
			{path: []any{"open_loop", 3, "p99_ns"}, tol: 2.0, slack: 200_000, names: "open sharded-word/bursty"},
			{path: []any{"closed_loop", 0, "p99_ns"}, tol: 2.0, slack: 200_000, names: "closed tight-uncached"},
		},
		disjoint: []jsonEdit{{[]any{"open_loop"}, []any{}}, {[]any{"closed_loop"}, []any{}}},
	},
	{
		bench: "bench6", file: "BENCH_6.json", cells: 19,
		bumps: []gateBump{
			{path: []any{"diurnal", 7, "steps_per_acquire"}, tol: 0.5, slack: 2.0, names: "elastic/down/64"},
			{path: []any{"resize", "storm_p99_ns"}, tol: 3.0, slack: 500_000, names: "resize storm"},
		},
		disjoint: []jsonEdit{{[]any{"diurnal"}, []any{}}, {[]any{"resize", "storm_p99_ns"}, 0}},
	},
}

func TestGatePins(t *testing.T) {
	for _, pin := range gatePins {
		t.Run(pin.bench, func(t *testing.T) {
			basePath := filepath.Join("..", "..", pin.file)
			base, err := os.ReadFile(basePath)
			if err != nil {
				t.Fatal(err)
			}
			n, err := gateCheck(t, pin.bench, base, basePath)
			if err != nil {
				t.Fatalf("%s against itself: %v", pin.file, err)
			}
			if n != pin.cells {
				t.Errorf("%s against itself compared %d cells, want %d", pin.file, n, pin.cells)
			}

			for _, b := range pin.bumps {
				orig := jsonNumber(t, base, b.path)
				bound := orig*(1+b.tol) + b.slack
				above, below := bound+1e-6*math.Max(1, bound), bound-1e-6*math.Max(1, bound)
				if strings.HasSuffix(b.path[len(b.path)-1].(string), "_ns") {
					above, below = math.Floor(bound)+1, math.Ceil(bound)-1
				}
				_, err := gateCheck(t, pin.bench, jsonSet(t, base, b.path, above), basePath)
				if err == nil {
					t.Errorf("%s %v = %v (bound %v) passed the gate", pin.file, b.path, above, bound)
				} else if !strings.Contains(err.Error(), b.names) {
					t.Errorf("%s %v above bound: error does not name %q:\n%v", pin.file, b.path, b.names, err)
				}
				n, err := gateCheck(t, pin.bench, jsonSet(t, base, b.path, below), basePath)
				if err != nil {
					t.Errorf("%s %v = %v (bound %v) failed the gate: %v", pin.file, b.path, below, bound, err)
				} else if n != pin.cells {
					t.Errorf("%s %v below bound compared %d cells, want %d", pin.file, b.path, n, pin.cells)
				}
			}

			disjoint := base
			for _, e := range pin.disjoint {
				disjoint = jsonSet(t, disjoint, e.path, e.val)
			}
			disjointPath := filepath.Join(t.TempDir(), pin.file)
			if err := os.WriteFile(disjointPath, disjoint, 0o644); err != nil {
				t.Fatal(err)
			}
			if n, err := gateCheck(t, pin.bench, base, disjointPath); err == nil {
				t.Errorf("%s against a baseline with no gated cells passed (%d cells)", pin.file, n)
			}
		})
	}
}

// TestGateGomaxprocsMismatch checks that a native run made at another
// GOMAXPROCS than its baseline fails on the mismatch, naming both values,
// rather than on a latency verdict.
func TestGateGomaxprocsMismatch(t *testing.T) {
	for _, c := range []struct{ bench, file string }{
		{"bench3", "BENCH_3.json"},
		{"bench5", "BENCH_5.json"},
		{"bench6", "BENCH_6.json"},
	} {
		basePath := filepath.Join("..", "..", c.file)
		base, err := os.ReadFile(basePath)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonNumber(t, base, []any{"gomaxprocs"}); got != 1 {
			t.Fatalf("%s records gomaxprocs %v, want 1", c.file, got)
		}
		_, err = gateCheck(t, c.bench, jsonSet(t, base, []any{"gomaxprocs"}, 2), basePath)
		if err == nil || !strings.Contains(err.Error(), "gomaxprocs=1") || !strings.Contains(err.Error(), "gomaxprocs=2") {
			t.Errorf("%s at gomaxprocs 2: got %v, want an error naming gomaxprocs=1 and gomaxprocs=2", c.file, err)
		}
	}
}

// TestPerfGateTable checks that PERF.md §"Baseline gates" lists exactly the
// code's gates and in-run targets.
func TestPerfGateTable(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "PERF.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Baseline gates\n")
	if !ok {
		t.Fatal(`PERF.md has no "## Baseline gates" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	tables := markdownTables(section)
	if len(tables) != 2 {
		t.Fatalf("Baseline gates section has %d tables, want 2 (gates, in-run targets)", len(tables))
	}

	var got []gate
	for _, row := range tables[0] {
		if len(row) != 5 {
			t.Fatalf("gate row %q: want 5 columns", row)
		}
		tol, err1 := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		slack, err2 := strconv.ParseFloat(strings.TrimSuffix(row[4], " ns"), 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("gate row %q: %v %v", row, err1, err2)
		}
		bench := strings.ToLower(strings.ReplaceAll(row[0], "_", ""))
		got = append(got, gate{bench, row[1], tol / 100, slack})
	}
	if !slices.Equal(got, gates) {
		t.Errorf("PERF.md gate table\n got %v\nwant %v", got, gates)
	}

	want := [][]string{
		{"BENCH_4", "level word-path steps/acquire reduction vs the bit path, every sim cell", fmt.Sprintf("≥ %g×", bench4ReductionTarget)},
		{"BENCH_5", "closed-loop cache p99 improvement vs tight-uncached", fmt.Sprintf("≥ %g×", bench5P99Target)},
		{"BENCH_6", "trickle steps/acquire, elastic vs fixed-peak", "elastic < fixed"},
		{"BENCH_6", "trickle resident bytes, elastic / fixed-peak", fmt.Sprintf("≤ %g", bench6ResidentTarget)},
		{"BENCH_6", "storm p99 vs the quiet run", fmt.Sprintf("≤ quiet × (1 + %g) + %d ns", bench6StormTolerance, bench6StormSlack)},
		{"BENCH_6", "storm grow + shrink transitions", fmt.Sprintf("≥ %d", bench6MinTransitions)},
		{"BENCH_6", "storm acquire errors", "0"},
	}
	if !slices.EqualFunc(tables[1], want, slices.Equal[[]string]) {
		t.Errorf("PERF.md in-run targets\n got %q\nwant %q", tables[1], want)
	}
}

// markdownTables returns the body rows of each pipe table in text, cells
// trimmed and backquotes dropped.
func markdownTables(text string) [][][]string {
	var tables [][][]string
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		if !inTable {
			// Header row; the separator row follows.
			tables = append(tables, nil)
			inTable = true
			continue
		}
		if strings.Trim(line, "|-: ") == "" {
			continue
		}
		var row []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			row = append(row, strings.ReplaceAll(strings.TrimSpace(c), "`", ""))
		}
		tables[len(tables)-1] = append(tables[len(tables)-1], row)
	}
	return tables
}

// gateCheck runs the named bench's baseline gate on the bench file cur
// against the baseline at basePath and returns how many cells it compared.
func gateCheck(t *testing.T, bench string, cur []byte, basePath string) (int, error) {
	t.Helper()
	switch bench {
	case "bench1":
		return checkBaseline(bench, decode[bench1File](t, cur), basePath)
	case "bench2":
		return checkBaseline(bench, decode[bench2File](t, cur), basePath)
	case "bench3":
		return checkBaseline(bench, decode[bench3File](t, cur), basePath)
	case "bench5":
		return checkBaseline(bench, decode[bench5File](t, cur), basePath)
	case "bench6":
		return checkBaseline(bench, decode[bench6File](t, cur), basePath)
	}
	t.Fatalf("no gate for %s", bench)
	return 0, nil
}

func decode[F any](t *testing.T, data []byte) F {
	t.Helper()
	var f F
	mustUnmarshal(t, data, &f)
	return f
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

// jsonAt walks path through a decoded JSON document.
func jsonAt(doc any, path []any) any {
	for _, p := range path {
		switch p := p.(type) {
		case string:
			doc = doc.(map[string]any)[p]
		case int:
			doc = doc.([]any)[p]
		}
	}
	return doc
}

// jsonNumber reads the number at path in the JSON document data.
func jsonNumber(t *testing.T, data []byte, path []any) float64 {
	t.Helper()
	var doc any
	mustUnmarshal(t, data, &doc)
	f, ok := jsonAt(doc, path).(float64)
	if !ok {
		t.Fatalf("%v is not a number", path)
	}
	return f
}

// jsonSet returns a copy of the JSON document data with the value at path
// replaced.
func jsonSet(t *testing.T, data []byte, path []any, val any) []byte {
	t.Helper()
	var doc any
	mustUnmarshal(t, data, &doc)
	parent := jsonAt(doc, path[:len(path)-1])
	switch last := path[len(path)-1].(type) {
	case string:
		parent.(map[string]any)[last] = val
	case int:
		parent.([]any)[last] = val
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
