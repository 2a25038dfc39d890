package main

// BENCH_4.json generation: the word-granular claim engine trajectory. Two
// sections share the file:
//
//   - sim: the deterministic E17 matrix — word-path vs probe-path steps per
//     acquire across batch sizes under tight provisioning (k x batch =
//     capacity, full occupancy). Machine-independent; the "speedups"
//     summary records the word path's reduction factor per cell and the
//     headline target (>= 2x for the level backend) is checked at
//     generation time.
//   - native: the public-API tight-provisioning churn of BENCH_3, run in
//     both probe modes (ArenaConfig.Probe) on the single level backend and
//     the sharded frontend, recording wall clock and the steps/acquire
//     carried by Arena.Stats.
//
// Subsequent perf PRs regenerate the file with -bench4; the sim section's
// word rows must not regress (they are deterministic), and the golden
// fingerprint tests pin that the probe path itself stayed bit-identical.

import (
	"fmt"
	"os"
	"runtime"

	"shmrename"
	"shmrename/internal/longlived"
)

// bench4SimPoint is one deterministic (backend, scan, n, batch) cell.
type bench4SimPoint struct {
	Backend         string  `json:"backend"`
	Scan            string  `json:"scan"`
	N               int     `json:"n"`
	Batch           int     `json:"batch"`
	Workers         int     `json:"workers"`
	StepsPerAcquire float64 `json:"steps_per_acquire"`
	MaxName         int64   `json:"max_name"`
	MaxActive       int64   `json:"max_active"`
	Acquires        int64   `json:"acquires"`
}

// bench4Speedup is the word-vs-bit reduction of one (backend, n, batch).
type bench4Speedup struct {
	Backend   string  `json:"backend"`
	N         int     `json:"n"`
	Batch     int     `json:"batch"`
	BitSteps  float64 `json:"bit_steps_per_acquire"`
	WordSteps float64 `json:"word_steps_per_acquire"`
	Reduction float64 `json:"reduction"`
}

// bench4NativePoint is one native public-API (backend, probe, g) cell.
type bench4NativePoint struct {
	Backend         string  `json:"backend"`
	Probe           string  `json:"probe"`
	Shards          int     `json:"shards"`
	Goroutines      int     `json:"goroutines"`
	Cycles          int     `json:"cycles"`
	StepsPerAcquire float64 `json:"steps_per_acquire"`
	NsPerAcquire    float64 `json:"ns_per_acquire"`
	KAcqPerSec      float64 `json:"kacq_per_sec"`
}

type bench4File struct {
	Description string              `json:"description"`
	GoOS        string              `json:"goos"`
	GoArch      string              `json:"goarch"`
	GoMaxProcs  int                 `json:"gomaxprocs"`
	Seed        uint64              `json:"seed"`
	Sim         []bench4SimPoint    `json:"sim"`
	Speedups    []bench4Speedup     `json:"speedups"`
	Native      []bench4NativePoint `json:"native"`
	TargetMet   bool                `json:"level_reduction_target_2x_met"`
}

// bench4SimTrials is the seeded-trial count per deterministic cell.
const bench4SimTrials = 5

// bench4Sim measures one deterministic cell on the simulator.
func bench4Sim(backend string, wordScan bool, n, batch int, seed uint64) bench4SimPoint {
	scan := "bit"
	if wordScan {
		scan = "word"
	}
	k := n / batch
	p := bench4SimPoint{Backend: backend, Scan: scan, N: n, Batch: batch, Workers: k}
	churn := longlived.ChurnConfig{Cycles: 4, HoldMin: 0, HoldMax: 8}
	var tally simTally
	for t := 0; t < bench4SimTrials; t++ {
		var arena longlived.Arena
		switch backend {
		case "level-array":
			arena = longlived.NewLevel(n, longlived.LevelConfig{WordScan: wordScan, Label: "b4-" + scan})
		case "tau-longlived":
			arena = longlived.NewTau(n, longlived.TauConfig{WordScan: wordScan, SelfClocked: true, Label: "b4t-" + scan})
		default:
			panic("bench4: unknown backend " + backend)
		}
		mon := longlived.NewMonitor(arena.NameBound())
		if err := tally.run(arena, mon, k, seed+uint64(t), longlived.BatchChurnBody(arena, mon, churn, batch)); err != nil {
			panic(fmt.Sprintf("bench4 %s/%s n=%d b=%d: %v", backend, scan, n, batch, err))
		}
	}
	p.StepsPerAcquire = tally.stepsPerAcquire()
	p.MaxName, p.MaxActive, p.Acquires = tally.maxName, tally.maxActive, tally.acquires
	return p
}

// bench4NativeRuns is the timed-run count per native cell (best recorded).
const bench4NativeRuns = 3

// bench4Cycles sizes a native cell's per-worker cycle count.
func bench4Cycles(g int) int {
	c := 1 << 15 / g
	if c < 128 {
		c = 128
	}
	return c
}

// bench4ReductionTarget is the headline gate checked at generation time:
// the level backend's word path must cut the bit path's steps/acquire by
// at least this factor in every sim cell.
const bench4ReductionTarget = 2.0

// runBench4 measures the word-engine trajectory and writes the JSON file.
// It fails when the headline target — >= 2x steps/acquire reduction for
// the level backend's word path at full occupancy — is not met: the sim
// section is deterministic, so a miss is a code regression, not noise.
func runBench4(path string, seed uint64, maxG int) error {
	if maxG < 4 || maxG > 4096 {
		return fmt.Errorf("bench4: -bench4-maxg %d must lie in [4, 4096]", maxG)
	}
	if err := probeWritable(path); err != nil {
		return err
	}
	out := bench4File{
		Description: "word-granular claim engine: sim = deterministic word-vs-bit steps/acquire across batch sizes at full occupancy (k x batch = capacity); native = public-API tight-provisioning churn per probe mode; regenerate with: renamebench -bench4 " + path,
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Seed:        seed,
		TargetMet:   true,
	}
	for _, n := range []int{1 << 10, 1 << 12} {
		for _, batch := range []int{1, 4, 16, 64} {
			for _, backend := range []string{"level-array", "tau-longlived"} {
				bit := bench4Sim(backend, false, n, batch, seed)
				word := bench4Sim(backend, true, n, batch, seed)
				out.Sim = append(out.Sim, bit, word)
				sp := bench4Speedup{
					Backend:   backend,
					N:         n,
					Batch:     batch,
					BitSteps:  bit.StepsPerAcquire,
					WordSteps: word.StepsPerAcquire,
					Reduction: bit.StepsPerAcquire / word.StepsPerAcquire,
				}
				out.Speedups = append(out.Speedups, sp)
				if backend == "level-array" && sp.Reduction < bench4ReductionTarget {
					out.TargetMet = false
				}
				fmt.Fprintf(os.Stderr, "bench4: sim %-13s n=%-5d batch=%-3d: %6.2f -> %5.2f steps/acquire (%.1fx)\n",
					backend, n, batch, sp.BitSteps, sp.WordSteps, sp.Reduction)
			}
		}
	}
	for g := 4; g <= maxG; g *= 4 {
		cells := []shmrename.ArenaConfig{
			{Capacity: g, Backend: shmrename.ArenaLevel, Probe: shmrename.ProbeBit, Seed: seed},
			{Capacity: g, Backend: shmrename.ArenaLevel, Probe: shmrename.ProbeWord, Seed: seed},
			{Capacity: g, Backend: shmrename.ArenaBackendSharded, Shards: 4, Probe: shmrename.ProbeBit, Seed: seed},
			{Capacity: g, Backend: shmrename.ArenaBackendSharded, Shards: 4, Probe: shmrename.ProbeWord, Seed: seed},
		}
		for _, cfg := range cells {
			c, err := bench3Cell(cfg, g, bench4NativeRuns, bench4Cycles(g))
			if err != nil {
				return fmt.Errorf("bench4 %s/%s g=%d: %w", cfg.Backend, cfg.Probe, g, err)
			}
			p := bench4NativePoint{
				Backend:         c.Backend,
				Probe:           string(cfg.Probe),
				Shards:          c.Shards,
				Goroutines:      g,
				Cycles:          c.Cycles,
				StepsPerAcquire: c.StepsPerAcquire,
				NsPerAcquire:    c.NsPerAcquire,
				KAcqPerSec:      c.KAcqPerSec,
			}
			out.Native = append(out.Native, p)
			fmt.Fprintf(os.Stderr, "bench4: native %-11s probe=%-4s g=%-4d: %6.2f steps/acquire, %8.1f kacq/s\n",
				p.Backend, p.Probe, g, p.StepsPerAcquire, p.KAcqPerSec)
		}
	}
	if err := writeJSON(path, out); err != nil {
		return err
	}
	if !out.TargetMet {
		return fmt.Errorf("bench4: level word path below the %gx steps/acquire reduction target (see %s)", bench4ReductionTarget, path)
	}
	return nil
}
