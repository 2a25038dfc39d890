package main

// BENCH_2.json generation: the churn-workload trajectory for the
// long-lived arena (internal/longlived). It records wall-clock, allocation,
// and step costs of sustained acquire/release churn — k = n/4 workers
// cycling names on a capacity-n arena — for both backends, plus the
// adaptivity signal (max issued name vs. peak simultaneous holders).
// Subsequent perf PRs regenerate the file with -bench2 and must not regress
// its steps-per-acquire column.

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"shmrename/internal/longlived"
)

// bench2Point is one measured (backend, n) churn cell.
type bench2Point struct {
	Backend         string  `json:"backend"`
	N               int     `json:"n"`
	K               int     `json:"k"`
	Cycles          int     `json:"cycles"`
	NsPerOp         float64 `json:"ns_per_op"`
	StepsPerAcquire float64 `json:"steps_per_acquire"`
	MaxName         int64   `json:"max_name"`
	MaxActive       int64   `json:"max_active"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
}

type bench2File struct {
	Description string        `json:"description"`
	GoOS        string        `json:"goos"`
	GoArch      string        `json:"goarch"`
	Seed        uint64        `json:"seed"`
	MaxN        int           `json:"max_n"`
	Results     []bench2Point `json:"results"`
}

// cells gates steps/acquire per (backend, n) point.
func (f bench2File) cells() []cell {
	var out []cell
	for _, p := range f.Results {
		out = append(out, cell{"steps/acquire", fmt.Sprintf("%s n=%d", p.Backend, p.N), p.StepsPerAcquire})
	}
	return out
}

// runBench2 measures the churn workload, writes the JSON file, and — when
// against is non-empty — fails on steps/acquire regressions versus that
// baseline trajectory.
func runBench2(path string, seed uint64, maxExp int, against string) error {
	if maxExp < 8 || maxExp > 20 || maxExp%2 != 0 {
		return fmt.Errorf("bench2: -bench2-maxexp %d must be even and within [8,20] (sweeps run n = 2^8, 2^10, .. 2^maxexp)", maxExp)
	}
	if err := probeWritable(path); err != nil {
		return err
	}
	out := bench2File{
		Description: "long-lived churn trajectory: k=n/4 workers acquire/hold/release on a capacity-n arena under FastFIFO; regenerate with: renamebench -bench2 " + path,
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		Seed:        seed,
		MaxN:        1 << 8,
	}

	churn := longlived.DefaultChurn
	for _, w := range longlived.ChurnBackends() {
		for e := 8; e <= maxExp; e += 2 {
			n := 1 << e
			k := n / 4
			if n > out.MaxN {
				out.MaxN = n
			}
			var tally simTally
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					arena := w.Make(n)
					mon := longlived.NewMonitor(arena.NameBound())
					if err := tally.run(arena, mon, k, seed+uint64(i), longlived.ChurnBody(arena, mon, churn)); err != nil {
						panic(fmt.Sprintf("bench2 %s n=%d: %v", w.Name, n, err))
					}
				}
			})
			p := bench2Point{
				Backend:         w.Name,
				N:               n,
				K:               k,
				Cycles:          churn.Cycles,
				NsPerOp:         float64(r.NsPerOp()),
				StepsPerAcquire: tally.stepsPerAcquire(),
				MaxName:         tally.maxName,
				MaxActive:       tally.maxActive,
				AllocsPerOp:     r.AllocsPerOp(),
				BytesPerOp:      r.AllocedBytesPerOp(),
			}
			out.Results = append(out.Results, p)
			fmt.Fprintf(os.Stderr, "bench2: %s n=%d k=%d: %.1fms/op, %.1f steps/acquire, max name %d @ %d active\n",
				w.Name, n, k, p.NsPerOp/1e6, p.StepsPerAcquire, p.MaxName, p.MaxActive)
		}
	}

	if err := writeJSON(path, out); err != nil {
		return err
	}
	if against != "" {
		_, err := checkBaseline("bench2", out, against)
		return err
	}
	return nil
}
