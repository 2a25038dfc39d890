package main

// BENCH_3.json generation: native scalability of the public long-lived
// arena, single backend vs the sharded frontend. The workload is tight
// provisioning — the arena's capacity equals the goroutine count, the way
// a slot table is sized to its worker fleet — with every goroutine cycling
// acquire / hold (yield) / release, so the arena runs at full occupancy
// and every acquire searches for one of the few transiently free slots.
//
// Before the word-granular claim engine this regime degenerated the single
// level-array to an O(capacity) per-bit backstop scan per acquire, which
// the sharded frontend beat by scanning only its home shard. The word
// engine (the public arena's default probe mode) collapsed that structural
// cost to ~1 shared-memory access per acquire for single and sharded
// alike — the steps_per_acquire column records it — so on the 1-vCPU
// builder the sweep now shows parity between the rows; what striping still
// buys is disjoint cache traffic on real cores, which this builder cannot
// observe. Subsequent perf PRs regenerate the file with -bench3 and gate
// on the steps column via -bench3-against.

import (
	"fmt"
	"os"
	"runtime"

	"shmrename"
)

// bench3Point is one measured (backend, shards, goroutines) cell.
type bench3Point struct {
	Backend      string  `json:"backend"`
	Shards       int     `json:"shards"` // 0 = unsharded single backend
	Goroutines   int     `json:"goroutines"`
	Capacity     int     `json:"capacity"`
	Cycles       int     `json:"cycles"`
	Acquires     int64   `json:"acquires"`
	NsPerAcquire float64 `json:"ns_per_acquire"`
	KAcqPerSec   float64 `json:"kacq_per_sec"`
	// StepsPerAcquire is the mean shared-memory accesses per successful
	// acquire of the recorded run (Arena.Stats): the machine-independent
	// structural cost the -bench3-against gate compares.
	StepsPerAcquire float64 `json:"steps_per_acquire"`
	MaxName         int64   `json:"max_name"`
	NameBound       int     `json:"name_bound"`
	FullRetries     int64   `json:"full_retries"`
}

// bench3Speedup summarizes the headline comparison per goroutine count:
// the best sharded cell of the shard-count sweep against the single
// backend (picking the stripe count is part of deploying the sharded
// frontend, exactly like picking Capacity).
type bench3Speedup struct {
	Goroutines  int     `json:"goroutines"`
	SingleKAcqS float64 `json:"single_kacq_per_sec"`
	BestShards  int     `json:"best_shards"`
	BestKAcqS   float64 `json:"best_sharded_kacq_per_sec"`
	Speedup     float64 `json:"speedup"`
}

type bench3File struct {
	Description string          `json:"description"`
	GoOS        string          `json:"goos"`
	GoArch      string          `json:"goarch"`
	GoMaxProcs  int             `json:"gomaxprocs"`
	Seed        uint64          `json:"seed"`
	Results     []bench3Point   `json:"results"`
	Speedups    []bench3Speedup `json:"speedups"`
}

// bench3Runs is the number of timed runs per cell; the best is recorded
// (least scheduler noise on a shared builder).
const bench3Runs = 5

// bench3Cycles sizes the per-worker cycle count so each timed run performs
// roughly the same total work regardless of the goroutine count.
func bench3Cycles(g int) int {
	c := 1 << 17 / g
	if c < 256 {
		c = 256
	}
	return c
}

// cells gates steps/acquire per (backend, shards, goroutines) cell at the
// file's GOMAXPROCS.
func (f bench3File) cells() []cell {
	var out []cell
	for _, p := range f.Results {
		out = append(out, cell{"steps/acquire", fmt.Sprintf("%s shards=%d g=%d gomaxprocs=%d",
			p.Backend, p.Shards, p.Goroutines, f.GoMaxProcs), p.StepsPerAcquire})
	}
	return out
}

// runBench3 measures the native scalability sweep, writes the JSON file,
// and — when against is non-empty — fails on steps/acquire regressions
// versus that baseline sweep.
func runBench3(path string, seed uint64, maxG int, against string) error {
	if maxG < 4 || maxG > 4096 {
		return fmt.Errorf("bench3: -bench3-maxg %d must lie in [4, 4096]", maxG)
	}
	if err := probeWritable(path); err != nil {
		return err
	}
	out := bench3File{
		Description: fmt.Sprintf("native arena scalability under tight provisioning: G goroutines churn a capacity-G arena (acquire/yield/release), single level-array backend vs the sharded frontend sweeping shard counts; best of %d runs per cell; regenerate with: renamebench -bench3 %s", bench3Runs, path),
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Seed:        seed,
	}
	single := make(map[int]float64)
	bestShards := make(map[int]int)
	bestKAcqS := make(map[int]float64)
	var gs []int
	for g := 4; g <= maxG; g *= 4 {
		gs = append(gs, g)
	}
	for _, g := range gs {
		cells := []shmrename.ArenaConfig{
			{Capacity: g, Backend: shmrename.ArenaLevel, Seed: seed},
		}
		for _, s := range []int{1, 2, 4, 8} {
			if s > g {
				continue
			}
			cells = append(cells, shmrename.ArenaConfig{
				Capacity: g,
				Backend:  shmrename.ArenaBackendSharded,
				Shards:   s,
				Seed:     seed,
			})
		}
		for _, cfg := range cells {
			p, err := bench3Cell(cfg, g, bench3Runs, bench3Cycles(g))
			if err != nil {
				return fmt.Errorf("bench3 %s shards=%d g=%d: %w", cfg.Backend, cfg.Shards, g, err)
			}
			out.Results = append(out.Results, p)
			if cfg.Backend == shmrename.ArenaLevel {
				single[g] = p.KAcqPerSec
			}
			if cfg.Backend == shmrename.ArenaBackendSharded && p.KAcqPerSec > bestKAcqS[g] {
				bestKAcqS[g] = p.KAcqPerSec
				bestShards[g] = cfg.Shards
			}
			fmt.Fprintf(os.Stderr, "bench3: %-11s shards=%d g=%-4d: %8.1f kacq/s, %6.1f ns/acquire, %5.2f steps/acquire, max name %d/%d\n",
				p.Backend, p.Shards, g, p.KAcqPerSec, p.NsPerAcquire, p.StepsPerAcquire, p.MaxName, p.NameBound)
		}
	}
	for _, g := range gs {
		out.Speedups = append(out.Speedups, bench3Speedup{
			Goroutines:  g,
			SingleKAcqS: single[g],
			BestShards:  bestShards[g],
			BestKAcqS:   bestKAcqS[g],
			Speedup:     bestKAcqS[g] / single[g],
		})
	}
	if err := writeJSON(path, out); err != nil {
		return err
	}
	if against != "" {
		_, err := checkBaseline("bench3", out, against)
		return err
	}
	return nil
}
