package main

// BENCH_1.json generation: the perf trajectory file for the hot-path
// overhaul PR. It records ns/op, allocs/op, and steps/proc-max for the E2
// (tight renaming, Theorem 5) and E5 (Corollary 7 loose renaming)
// simulated workloads at n up to 2^20, plus the NameSpace memory footprint,
// against the frozen pre-refactor baseline. Subsequent perf PRs regenerate
// the file with -bench1 and must not regress it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"shmrename/internal/core"
	"shmrename/internal/sched"
	"shmrename/internal/shm"
)

// bench1Point is one measured (experiment, n) cell.
type bench1Point struct {
	Exp             string  `json:"exp"`
	N               int     `json:"n"`
	NsPerOp         float64 `json:"ns_per_op"`
	StepsPerProcMax float64 `json:"steps_per_proc_max"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
}

// bench1Baseline is a frozen measurement of the pre-refactor simulator,
// recorded once on the machine named in Host. See PERF.md for methodology.
type bench1Baseline struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type bench1File struct {
	Description     string           `json:"description"`
	GoOS            string           `json:"goos"`
	GoArch          string           `json:"goarch"`
	Seed            uint64           `json:"seed"`
	MaxN            int              `json:"max_n"`
	NameSpaceMemory map[string]int64 `json:"namespace_memory_bytes_2p20_names"`
	Baseline        []bench1Baseline `json:"baseline_pre_refactor"`
	Results         []bench1Point    `json:"results"`
}

// seedBaseline freezes the seed-commit numbers measured for the hot-path
// overhaul (go test -bench -benchtime 10x on the idle builder, see
// PERF.md). They are data, not code: keep them until a future re-baseline.
var seedBaseline = []bench1Baseline{
	{Name: "BenchmarkE2TightSim/n=16384", NsPerOp: 344.1e6, AllocsPerOp: 93413, BytesPerOp: 15786577},
	{Name: "BenchmarkE5Corollary7/n=16384,l=2", NsPerOp: 129.2e6, AllocsPerOp: 92565, BytesPerOp: 10706264},
}

// stepsTolerance is the allowed relative growth of steps/proc-max against
// a baseline trajectory before -bench1-against reports a regression. Steps
// are deterministic per seed, but the per-point mean is taken over however
// many iterations testing.Benchmark chooses, so a small slack absorbs the
// seed-set difference; a real regression (an extra probe round, a broken
// fallback) moves the metric far beyond it.
const stepsTolerance = 0.05

// compareBench1 checks the freshly measured trajectory against a baseline
// BENCH_1.json: steps/proc-max may not grow beyond the tolerance at any
// (exp, n) point present in both. Wall-clock deltas are advisory only —
// printed, never failed on, since CI machines vary.
func compareBench1(cur bench1File, againstPath string) error {
	data, err := os.ReadFile(againstPath)
	if err != nil {
		return fmt.Errorf("bench1: reading baseline: %w", err)
	}
	var base bench1File
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench1: parsing baseline %s: %w", againstPath, err)
	}
	type key struct {
		exp string
		n   int
	}
	baseline := make(map[key]bench1Point, len(base.Results))
	for _, p := range base.Results {
		baseline[key{p.Exp, p.N}] = p
	}
	var regressions []string
	compared := 0
	for _, p := range cur.Results {
		b, ok := baseline[key{p.Exp, p.N}]
		if !ok {
			continue
		}
		compared++
		if p.StepsPerProcMax > b.StepsPerProcMax*(1+stepsTolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s n=%d: steps/proc-max %.1f exceeds baseline %.1f by more than %.0f%%",
				p.Exp, p.N, p.StepsPerProcMax, b.StepsPerProcMax, stepsTolerance*100))
		}
		fmt.Fprintf(os.Stderr, "bench1: %s n=%d vs baseline: steps %.1f/%.1f, wall %.1f/%.1fms (advisory)\n",
			p.Exp, p.N, p.StepsPerProcMax, b.StepsPerProcMax, p.NsPerOp/1e6, b.NsPerOp/1e6)
	}
	if compared == 0 {
		return fmt.Errorf("bench1: no overlapping (exp, n) points between measurement and baseline %s", againstPath)
	}
	if len(regressions) > 0 {
		msg := "bench1: steps/proc-max regressed vs " + againstPath
		for _, r := range regressions {
			msg += "\n  " + r
		}
		return errors.New(msg)
	}
	fmt.Fprintf(os.Stderr, "bench1: %d points within %.0f%% of baseline %s\n",
		compared, stepsTolerance*100, againstPath)
	return nil
}

// runBench1 measures the current tree, writes the JSON file, and — when
// against is non-empty — fails on steps/proc-max regressions versus that
// baseline trajectory.
func runBench1(path string, seed uint64, maxExp int, against string) error {
	if maxExp < 10 || maxExp > 24 || maxExp%2 != 0 {
		return fmt.Errorf("bench1: -bench1-maxexp %d must be even and within [10,24] (sweeps run n = 2^10, 2^12, .. 2^maxexp)", maxExp)
	}
	// Fail on an unwritable path now, not after minutes of measurement.
	if f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
		return err
	} else {
		f.Close()
	}
	out := bench1File{
		Description: "simulated hot-path trajectory: E2 (tight, Theorem 5) and E5 (Corollary 7) under FastFIFO; regenerate with: renamebench -bench1 " + path,
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		Seed:        seed,
		MaxN:        1 << 10, // raised to the largest n actually measured
		NameSpaceMemory: map[string]int64{
			"packed_bitmap":           (1 << 20) / 64 * 8,
			"padded_bitmap":           (1 << 20) / 64 * 64,
			"byte_per_name_before":    1 << 20,
			"packed_reduction_factor": (1 << 20) / ((1 << 20) / 64 * 8),
		},
		Baseline: seedBaseline,
	}

	type workload struct {
		exp  string
		make func(n int) core.Instance
	}
	workloads := []workload{
		{"E2", func(n int) core.Instance {
			return core.NewTight(n, core.TightConfig{SelfClocked: true})
		}},
		{"E5", func(n int) core.Instance {
			return core.NewCorollary7(n, core.RoundsConfig{Ell: 2}, nil)
		}},
	}
	for _, w := range workloads {
		for e := 10; e <= maxExp; e += 2 {
			n := 1 << e
			if n > out.MaxN {
				out.MaxN = n
			}
			var maxSteps int64
			iters := 0
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					inst := w.make(n)
					res := core.Simulate(inst, sched.Config{Seed: seed + uint64(i), Fast: sched.FastFIFO})
					if err := sched.VerifyUnique(res, inst.M()); err != nil {
						panic(fmt.Sprintf("bench1 %s n=%d: %v", w.exp, n, err))
					}
					maxSteps += sched.MaxSteps(res)
					iters++
				}
			})
			p := bench1Point{
				Exp:             w.exp,
				N:               n,
				NsPerOp:         float64(r.NsPerOp()),
				StepsPerProcMax: float64(maxSteps) / float64(iters),
				AllocsPerOp:     r.AllocsPerOp(),
				BytesPerOp:      r.AllocedBytesPerOp(),
			}
			out.Results = append(out.Results, p)
			fmt.Fprintf(os.Stderr, "bench1: %s n=%d: %.1fms/op, %.1f steps/proc-max\n",
				w.exp, n, p.NsPerOp/1e6, p.StepsPerProcMax)
		}
	}

	// The memory claim is verifiable, not just asserted: build the 2^20
	// space and confirm the packed footprint.
	s := shm.NewNameSpace("bench1-footprint", 1<<20)
	if got := s.CountClaimed(); got != 0 {
		return fmt.Errorf("bench1: fresh 2^20 space reports %d claimed", got)
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if against != "" {
		return compareBench1(out, against)
	}
	return nil
}
