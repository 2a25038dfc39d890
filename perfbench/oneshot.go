package main

import (
	"fmt"
	"runtime"
	"time"

	"shmrename"
	"shmrename/internal/core"
	"shmrename/internal/sched"
)

// oneshot_sim: the paper's tight renaming (§III, TightTau) on the
// deterministic simulator under the random adversary.

const (
	oneshotN      = 1 << 16
	buildReps     = 51
	minRenames    = 3
	renameBudgetS = 0.85 // share of the run's seconds spent renaming
)

func oneshotConfig(seed uint64) shmrename.Config {
	return shmrename.Config{Algorithm: shmrename.TightTau, N: oneshotN, Simulate: true, Schedule: "random", Seed: seed}
}

// buildInstance builds the instance Rename builds for oneshotConfig: the
// same constructor and options.
func buildInstance() *core.Tight {
	return core.NewTight(oneshotN, core.TightConfig{SelfClocked: true})
}

// measureBuilds times buildReps instance builds, each on a freshly
// collected heap, and returns their durations in seconds and the heap
// bytes one instance keeps live.
func measureBuilds() ([]float64, float64) {
	var ms runtime.MemStats
	var footprint float64
	ds := make([]float64, buildReps)
	for i := range ds {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		start := time.Now()
		inst := buildInstance()
		ds[i] = time.Since(start).Seconds()
		if i == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			footprint = float64(ms.HeapAlloc) - float64(before)
		}
		runtime.KeepAlive(inst)
	}
	return ds, footprint
}

// renameRun is one checked rename.
type renameRun struct {
	wall  float64 // seconds
	res   *shmrename.Result
	named int
	steps int64 // Σ Result.Steps
}

// publicRename runs one Rename and verifies it.
func publicRename(cfg shmrename.Config) (renameRun, error) {
	res, err := shmrename.Rename(cfg)
	if err != nil {
		return renameRun{}, err
	}
	if err := res.Verify(); err != nil {
		return renameRun{}, fmt.Errorf("Verify: %w", err)
	}
	r := renameRun{res: res}
	for pid, n := range res.Names {
		if n >= 0 {
			r.named++
		}
		r.steps += res.Steps[pid]
	}
	return r, nil
}

// renames runs checked public renames with the workload's seeds until
// budget seconds are spent (at least minRenames).
func renames(seed uint64, budget float64) ([]renameRun, error) {
	seeds := renameSeeds(seed, 1024)
	var out []renameRun
	start := time.Now()
	for i := 0; i < len(seeds); i++ {
		if i >= minRenames && time.Since(start).Seconds()+out[len(out)-1].wall > budget {
			break
		}
		runtime.GC() // every rename starts on a collected heap
		t := time.Now()
		r, err := publicRename(oneshotConfig(seeds[i]))
		if err != nil {
			return out, fmt.Errorf("rename seed %d: %w", seeds[i], err)
		}
		r.wall = time.Since(t).Seconds()
		out = append(out, r)
	}
	return out, nil
}

func oneshotE2E(seed uint64, secs float64) *outcome {
	out := &outcome{}
	builds, footprint := measureBuilds()
	runs, err := renames(seed, secs*renameBudgetS)
	if err != nil {
		out.err = err
		return out
	}
	var walls, maxSteps []float64
	var named, total, steps int64
	var wallSum float64
	for _, r := range runs {
		walls = append(walls, r.wall)
		maxSteps = append(maxSteps, float64(r.res.MaxSteps))
		named += int64(r.named)
		total += int64(len(r.res.Names))
		steps += r.steps
		wallSum += r.wall
	}
	// A simulated process's acquire latency is its steps at the run's
	// measured wall time per step.
	nsPerStep := wallSum * 1e9 / float64(max(steps, 1))
	acq := newHist()
	var maxName int
	for _, r := range runs {
		for pid, n := range r.res.Names {
			if n >= 0 {
				acq.add(int64(float64(r.res.Steps[pid]) * nsPerStep))
				maxName = max(maxName, n)
			}
		}
	}
	out.attempted, out.failed = total, total-named
	namesPerS := float64(named) / wallSum
	out.set("setup_s", median(builds), "s")
	out.set("ops_per_s", namesPerS, "names/s")
	out.set("acquire_p50_ns", acq.quantile(0.50), "ns")
	out.set("acquire_p99_ns", acq.quantile(0.99), "ns")
	// One-shot renaming has no release; the release slots repeat the
	// acquire quantiles so every workload prints every metric.
	out.set("release_p50_ns", acq.quantile(0.50), "ns")
	out.set("release_p99_ns", acq.quantile(0.99), "ns")
	report("acquire latency: %d samples, p50 %.1f ns, p99 %.1f ns, p99.9 %.1f ns", acq.n, acq.quantile(0.5), acq.quantile(0.99), acq.quantile(0.999))
	out.set("steps_per_acquire", float64(steps)/float64(max(named, 1)), "steps")
	out.set("name_span_ratio", float64(maxName+1)/float64(max(named/int64(len(runs)), 1)), "ratio")
	out.set("success_ratio", float64(named)/float64(total), "ratio")
	out.set("resident_bytes", footprint, "bytes")
	out.set("slo_rate_per_s", namesPerS, "acq/s")
	out.set("rename_s", median(walls), "s")
	out.set("max_steps", mean(maxSteps), "steps")
	report("%d renames of n=%d: wall %v s, max steps %v, %.1f ns per step, build median %.3f ms",
		len(runs), oneshotN, walls, maxSteps, nsPerStep, median(builds)*1e3)
	return out
}

// simulate runs the instance on the simulator exactly as Rename does for
// oneshotConfig.
func simulate(inst core.Instance, seed uint64) []sched.Result {
	return sched.Run(sched.Config{
		N:         inst.N(),
		Seed:      seed,
		Body:      inst.Body,
		AfterStep: inst.Clock(),
		Spaces:    inst.Probeables(),
		Fast:      sched.FastRandom,
	})
}

// oneshotTraced alternates a traced rename — the instance build and the
// simulator run timed as separate spans — with an untraced public Rename
// of the same seed, which must reach the same step complexity.
func oneshotTraced(seed uint64, secs float64) *outcome {
	out := &outcome{}
	l := newSpanLog(time.Now(), 0)
	seeds := renameSeeds(seed, 1024)
	var builds, runs, nsPerStep, stepsTotal, traced, untraced []float64
	start := time.Now()
	for i, s := range seeds {
		if i >= minRenames-1 && time.Since(start).Seconds()+traced[i-1]+untraced[i-1] > secs {
			break
		}
		runtime.GC()
		t0 := time.Now()
		inst := buildInstance()
		t1 := time.Now()
		results := simulate(inst, s)
		t2 := time.Now()
		l.record(int64(i), callBuild, t0, t1)
		l.record(int64(i), callRun, t1, t2)
		res := &shmrename.Result{M: inst.M(), Names: make([]int, len(results))}
		var steps int64
		for _, r := range results {
			res.Names[r.PID] = r.Name
			steps += r.Steps
			res.MaxSteps = max(res.MaxSteps, r.Steps)
			if r.Status != sched.Named {
				out.err = fmt.Errorf("seed %d: process %d ended %v", s, r.PID, r.Status)
				return out
			}
		}
		if err := res.Verify(); err != nil {
			out.err = fmt.Errorf("seed %d: Verify: %w", s, err)
			return out
		}
		runtime.GC()
		u0 := time.Now()
		pub, err := publicRename(oneshotConfig(s))
		if err != nil {
			out.err = err
			return out
		}
		if pub.res.MaxSteps != res.MaxSteps {
			out.err = fmt.Errorf("seed %d: traced run took %d max steps, Rename %d", s, res.MaxSteps, pub.res.MaxSteps)
			return out
		}
		builds = append(builds, t1.Sub(t0).Seconds()*1e3)
		runs = append(runs, t2.Sub(t1).Seconds()*1e3)
		nsPerStep = append(nsPerStep, float64(t2.Sub(t1).Nanoseconds())/float64(steps))
		stepsTotal = append(stepsTotal, float64(steps))
		traced = append(traced, t2.Sub(t0).Seconds())
		untraced = append(untraced, time.Since(u0).Seconds())
		out.attempted += int64(len(results))
	}
	setLadderMetrics(out, kChurn, [nRungs]*rungResult{}, nil)
	out.set("core.build_ms", median(builds), "ms")
	out.set("sched.run_ms", median(runs), "ms")
	out.set("sched.ns_per_step", median(nsPerStep), "ns")
	out.set("sched.steps_total", median(stepsTotal), "steps")
	out.set("trace.overhead_ratio", median(traced)/median(untraced), "ratio")
	report("%d traced renames: build %v ms, run %v ms, steps %v; untraced Rename %v s",
		len(runs), builds, runs, stepsTotal, untraced)
	if err := writeSpans(".bench_build/spans", fmt.Sprintf("oneshot_sim-%d.csv", seed), []string{"oneshot"}, []*spanLog{l}); err != nil {
		report("spans not written: %v", err)
	}
	return out
}
