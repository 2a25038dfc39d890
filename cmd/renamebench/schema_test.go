package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// smallestRuns runs each generator at its smallest legal scale.
var smallestRuns = []struct {
	file string
	run  func(path string) error
}{
	{"BENCH_1.json", func(p string) error { return runBench1(p, 1, 10, "") }},
	{"BENCH_2.json", func(p string) error { return runBench2(p, 1, 8, "") }},
	{"BENCH_3.json", func(p string) error { return runBench3(p, 1, 4, "") }},
	{"BENCH_4.json", func(p string) error { return runBench4(p, 1, 4) }},
	{"BENCH_5.json", func(p string) error { return runBench5(p, 1, 200e3, 1000, "") }},
	{"BENCH_6.json", func(p string) error { return runBench6(p, 1, 1024, "") }},
}

// TestBenchUnwritablePath checks that every generator fails on an output
// path in a missing directory before it measures anything.
func TestBenchUnwritablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "out.json")
	for _, c := range smallestRuns {
		var err error
		stderr := captureStderr(t, func() { err = c.run(path) })
		if !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: got %v, want a missing-directory error", c.file, err)
		}
		if stderr != "" {
			t.Errorf("%s: measured before rejecting the path:\n%s", c.file, stderr)
		}
	}
}

// TestBenchSchemas runs every generator at its smallest legal scale and
// checks that the file it writes has exactly the key paths of the
// checked-in BENCH_N.json, so the baselines stay readable by the gates.
func TestBenchSchemas(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("runs every generator; skipped under -short and -race")
	}
	for _, c := range smallestRuns {
		t.Run(c.file, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), c.file)
			runErr := c.run(path)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run: %v)", err, runErr)
			}
			if runErr != nil {
				// Wall-clock in-run targets can miss on a loaded host; the
				// file is written before they are checked.
				t.Logf("run: %v", runErr)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", c.file))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := jsonKeyPaths(t, got), jsonKeyPaths(t, want); !slices.Equal(g, w) {
				t.Errorf("key paths differ from the checked-in file:\n got %v\nwant %v", g, w)
			}
		})
	}
}

// jsonKeyPaths lists the distinct key paths of a JSON document, with
// array elements folded into one "[]" step.
func jsonKeyPaths(t *testing.T, data []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				seen[prefix+"."+k] = true
				walk(prefix+"."+k, e)
			}
		case []any:
			for _, e := range v {
				walk(prefix+"[]", e)
			}
		}
	}
	walk("", doc)
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// captureStderr runs fn with os.Stderr redirected and returns what it wrote.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	saved := os.Stderr
	os.Stderr = w
	func() {
		defer func() { os.Stderr = saved; w.Close() }()
		fn()
	}()
	return <-done
}
