package main

// BENCH_6.json generation: the elastic diurnal trajectory. Three
// sections share the file:
//
//   - diurnal: one persistent arena per variant (elastic vs the
//     peak-provisioned fixed ladder, both behind the public Arena API)
//     rides a diurnal demand ramp — live names climb from 10 to the full
//     capacity and back down, with no rebuild between phases. Each phase
//     records steps/acquire (shared-memory accesses in the paper's cost
//     model, measured on the per-TAS probe path so the structural cost is
//     machine-independent), Stats().CapacityNow/PeakCapacity, the
//     resident-bytes footprint proxy, and the phase's acquire p99
//     (wall-clock, advisory).
//   - trickle headline: at the down-leg k = capacity/64 cell the elastic
//     arena must beat the peak-provisioned fixed arena on steps/acquire
//     (its probe floor starts above levels the fixed ladder wades
//     through) and hold <= 1/8 of the fixed arena's resident bitmap
//     bytes (the proportional-memory claim; the drained ladder sits near
//     its 64-name floor while the fixed ladder keeps every level
//     resident around the clock).
//   - resize: a forced grow/shrink storm against the elastic arena —
//     native workers churn while an antagonist drives the ladder between
//     its floor and ceiling. The storm must complete with zero acquire
//     errors and a p99 bounded against the same workload without the
//     antagonist (resizes never block concurrent acquires).
//
// Wall-clock numbers are machine-dependent; regenerate with
//
//	renamebench -bench6 BENCH_6.json
//
// and gate regressions against a same-machine baseline with
// -bench6-against (tolerance in PERF.md §"Baseline gates").

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shmrename"
	"shmrename/internal/longlived"
	"shmrename/internal/metrics"
	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

// bench6Phase is one (arena, leg, demand) cell of the diurnal sweep.
type bench6Phase struct {
	Arena           string  `json:"arena"`
	Leg             string  `json:"leg"`
	K               int     `json:"k"`
	Goroutines      int     `json:"goroutines"`
	Cycles          int     `json:"cycles"`
	Acquires        int64   `json:"acquires"`
	StepsPerAcquire float64 `json:"steps_per_acquire"`
	CapacityNow     int     `json:"capacity_now"`
	PeakCapacity    int     `json:"peak_capacity"`
	ResidentBytes   int64   `json:"resident_bytes"`
	P99Ns           int64   `json:"p99_ns"`
}

// bench6Resize is the forced grow/shrink storm section.
type bench6Resize struct {
	Capacity      int   `json:"capacity"`
	Goroutines    int   `json:"goroutines"`
	CyclesPerG    int   `json:"cycles_per_goroutine"`
	QuietP50Ns    int64 `json:"quiet_p50_ns"`
	QuietP99Ns    int64 `json:"quiet_p99_ns"`
	StormP50Ns    int64 `json:"storm_p50_ns"`
	StormP99Ns    int64 `json:"storm_p99_ns"`
	StormP999Ns   int64 `json:"storm_p999_ns"`
	Grows         int64 `json:"grows"`
	Shrinks       int64 `json:"shrinks"`
	DrainCancels  int64 `json:"drain_cancels"`
	AcquireErrors int64 `json:"acquire_errors"`
}

type bench6File struct {
	Description         string        `json:"description"`
	GoOS                string        `json:"goos"`
	GoArch              string        `json:"goarch"`
	GoMaxProcs          int           `json:"gomaxprocs"`
	Seed                uint64        `json:"seed"`
	Capacity            int           `json:"capacity"`
	Diurnal             []bench6Phase `json:"diurnal"`
	Resize              bench6Resize  `json:"resize"`
	TrickleK            int           `json:"trickle_k"`
	TrickleStepsFixed   float64       `json:"trickle_steps_fixed"`
	TrickleStepsElastic float64       `json:"trickle_steps_elastic"`
	StepsImprovement    float64       `json:"trickle_steps_improvement_vs_fixed"`
	ResidentFraction    float64       `json:"trickle_resident_fraction_of_fixed"`
	StepsTargetMet      bool          `json:"trickle_steps_target_met"`
	ResidentTargetMet   bool          `json:"resident_eighth_target_met"`
	ResizeBoundedMet    bool          `json:"resize_p99_bounded_target_met"`
}

// bench6ResidentTarget is the headline memory gate: at the down-leg
// trickle the elastic arena's resident bytes may be at most this fraction
// of the peak-provisioned fixed arena's.
const bench6ResidentTarget = 1.0 / 8

// bench6MinTransitions is the floor on grow+shrink transitions the storm
// must actually force — below it the "resizes never block acquires" claim
// was not exercised.
const bench6MinTransitions = 32

// bench6Legs expands a capacity into the diurnal demand schedule: live
// names ramp 10 → capacity → 10 through quarter-power steps, with the
// headline trickle cell capacity/64 on both legs.
func bench6Legs(capacity int) []struct {
	Leg string
	K   int
} {
	up := []int{10, capacity / 64, capacity / 16, capacity / 4}
	var out []struct {
		Leg string
		K   int
	}
	for _, k := range up {
		out = append(out, struct {
			Leg string
			K   int
		}{"up", k})
	}
	out = append(out, struct {
		Leg string
		K   int
	}{"peak", capacity})
	for i := len(up) - 1; i >= 0; i-- {
		out = append(out, struct {
			Leg string
			K   int
		}{"down", up[i]})
	}
	return out
}

// bench6Cycles sizes a phase's per-worker cycle count: low-demand phases
// run long enough for the shrink hysteresis (128 consecutive eligible
// releases per retired level) to converge, high-demand phases are capped
// — their cost per cycle dwarfs the trickle's.
func bench6Cycles(g int) int {
	c := 3000 / g
	if c < 4 {
		return 4
	}
	if c > 400 {
		return 400
	}
	return c
}

// bench6Diurnal rides one arena variant through the full demand ramp and
// returns its per-phase cells. The arena persists across phases — the
// elastic ladder must grow through the up leg and drain through the down
// leg with churn in flight, exactly the regime E20 pins deterministically.
func bench6Diurnal(name string, cfg shmrename.ArenaConfig, capacity int) ([]bench6Phase, error) {
	arena, err := shmrename.NewArena(cfg)
	if err != nil {
		return nil, err
	}
	defer arena.Close()
	var out []bench6Phase
	for _, ph := range bench6Legs(capacity) {
		g := ph.K / 2 // hold-two churn: live names peak at 2g = the phase demand
		if g < 1 {
			g = 1
		}
		cycles := bench6Cycles(g)
		before := arena.Stats()
		h, err := holdTwoChurn(arena, g, cycles)
		if err != nil {
			return nil, fmt.Errorf("%s %s k=%d: %w", name, ph.Leg, ph.K, err)
		}
		if held := arena.Held(); held != 0 {
			return nil, fmt.Errorf("%s %s k=%d: %d names held after drain", name, ph.Leg, ph.K, held)
		}
		st := arena.Stats()
		acq := st.Acquires - before.Acquires
		p := bench6Phase{
			Arena:           name,
			Leg:             ph.Leg,
			K:               ph.K,
			Goroutines:      g,
			Cycles:          cycles,
			Acquires:        acq,
			StepsPerAcquire: float64(st.AcquireSteps-before.AcquireSteps) / float64(acq),
			CapacityNow:     st.CapacityNow,
			PeakCapacity:    st.PeakCapacity,
			ResidentBytes:   st.ResidentBytes,
			P99Ns:           h.Quantile(0.99),
		}
		out = append(out, p)
		fmt.Fprintf(os.Stderr, "bench6: %-10s %-4s k=%-5d g=%-4d: %6.2f steps/acquire, cap now %-5d resident %6d B, p99 %d ns\n",
			name, ph.Leg, ph.K, g, p.StepsPerAcquire, p.CapacityNow, p.ResidentBytes, p.P99Ns)
	}
	return out, nil
}

// bench6Storm churns g native workers against an elastic arena while (in
// storm mode) an antagonist forces the ladder between floor and ceiling.
// It returns the merged acquire-latency histogram, the transition
// counters, and the acquire-error count.
func bench6Storm(label string, seed uint64, g, cycles int, antagonize bool) (metrics.Histogram, [3]int64, int64, error) {
	arena := longlived.NewElastic(1024, longlived.ElasticConfig{
		MinCapacity: 256,
		MaxPasses:   8,
		WordScan:    true,
		Padded:      true,
		Label:       label,
	})
	var done atomic.Bool
	var anta sync.WaitGroup
	if antagonize {
		anta.Add(1)
		go func() {
			defer anta.Done()
			for !done.Load() {
				for arena.Grow() {
					runtime.Gosched()
				}
				runtime.Gosched()
				for arena.Shrink() {
					runtime.Gosched()
				}
				runtime.Gosched()
			}
		}()
	}
	parts := make([]metrics.Histogram, g)
	var errs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := shm.NewProc(w, prng.NewStream(seed, w), nil, 1<<40)
			for c := 0; c < cycles; c++ {
				start := time.Now()
				n := arena.Acquire(p)
				for n < 0 {
					errs.Add(1)
					runtime.Gosched()
					n = arena.Acquire(p)
				}
				parts[w].Record(time.Since(start).Nanoseconds())
				runtime.Gosched()
				arena.Release(p, n)
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	anta.Wait()
	var h metrics.Histogram
	for w := range parts {
		h.Merge(&parts[w])
	}
	if held := arena.Held(); held != 0 {
		return h, [3]int64{}, errs.Load(), fmt.Errorf("%s: %d names held after drain", label, held)
	}
	grows, shrinks, cancels := arena.Resizes()
	return h, [3]int64{grows, shrinks, cancels}, errs.Load(), nil
}

// cells gates steps/acquire per diurnal (arena, leg, k) phase at the
// file's capacity and GOMAXPROCS, and the resize storm's p99.
func (f bench6File) cells() []cell {
	var out []cell
	for _, p := range f.Diurnal {
		out = append(out, cell{"steps/acquire", fmt.Sprintf("%s/%s/%d cap=%d gomaxprocs=%d",
			p.Arena, p.Leg, p.K, f.Capacity, f.GoMaxProcs), p.StepsPerAcquire})
	}
	return append(out, cell{"storm p99", fmt.Sprintf("resize storm gomaxprocs=%d", f.GoMaxProcs), float64(f.Resize.StormP99Ns)})
}

// runBench6 measures the elastic diurnal trajectory, writes the JSON
// file, and fails when a headline gate misses — the trickle steps/acquire
// win, the 1/8 residency bound, or a storm p99 beyond the quiet bound —
// or, with a baseline, when any recorded cell regressed beyond tolerance.
func runBench6(path string, seed uint64, capacity int, against string) error {
	if capacity < 1024 || capacity > 1<<20 || capacity&(capacity-1) != 0 {
		return fmt.Errorf("bench6: -bench6-cap %d must be a power of two in [1024, %d]", capacity, 1<<20)
	}
	if err := probeWritable(path); err != nil {
		return err
	}
	out := bench6File{
		Description: "elastic diurnal trajectory: diurnal = live demand ramps 10 -> capacity -> 10 over one persistent arena per variant (elastic vs peak-provisioned fixed ladder, public API, per-TAS probe path so steps/acquire is the paper's machine-independent structural cost); headline gates at the down-leg k=capacity/64 trickle: elastic steps/acquire below fixed and resident bytes <= 1/8 of fixed; resize = forced grow/shrink storm, zero acquire errors, p99 bounded vs the antagonist-free quiet run; regenerate with: renamebench -bench6 " + path,
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Seed:        seed,
		Capacity:    capacity,
		TrickleK:    capacity / 64,
	}

	// Section 1: the diurnal sweep, one persistent arena per variant. Both
	// run the per-bit probe path: steps/acquire then counts every failed
	// TAS the ladder walk pays, the cost model under which probe-range
	// proportionality is visible (the word engine's hints neutralize
	// saturated levels for fixed and elastic alike; BENCH_4 covers it).
	variants := []struct {
		name string
		cfg  shmrename.ArenaConfig
	}{
		{"elastic", shmrename.ArenaConfig{
			Capacity: capacity, Probe: shmrename.ProbeBit, Seed: seed,
			Elastic: &shmrename.ElasticConfig{}}},
		{"fixed-peak", shmrename.ArenaConfig{
			Capacity: capacity, Probe: shmrename.ProbeBit, Seed: seed}},
	}
	for _, v := range variants {
		phases, err := bench6Diurnal(v.name, v.cfg, capacity)
		if err != nil {
			return fmt.Errorf("bench6: %w", err)
		}
		out.Diurnal = append(out.Diurnal, phases...)
	}

	// Headline: the down-leg trickle cell, after the ladder has seen peak.
	cell := func(arena string) (bench6Phase, error) {
		for _, p := range out.Diurnal {
			if p.Arena == arena && p.Leg == "down" && p.K == out.TrickleK {
				return p, nil
			}
		}
		return bench6Phase{}, fmt.Errorf("bench6: no down-leg k=%d cell for %s", out.TrickleK, arena)
	}
	el, err := cell("elastic")
	if err != nil {
		return err
	}
	fx, err := cell("fixed-peak")
	if err != nil {
		return err
	}
	out.TrickleStepsElastic = el.StepsPerAcquire
	out.TrickleStepsFixed = fx.StepsPerAcquire
	if el.StepsPerAcquire > 0 {
		out.StepsImprovement = fx.StepsPerAcquire / el.StepsPerAcquire
	}
	out.StepsTargetMet = el.StepsPerAcquire < fx.StepsPerAcquire
	if fx.ResidentBytes > 0 {
		out.ResidentFraction = float64(el.ResidentBytes) / float64(fx.ResidentBytes)
	}
	out.ResidentTargetMet = out.ResidentFraction > 0 && out.ResidentFraction <= bench6ResidentTarget
	fmt.Fprintf(os.Stderr, "bench6: trickle k=%d: elastic %.2f vs fixed %.2f steps/acquire (%.1fx), resident %d/%d B (%.3f of fixed)\n",
		out.TrickleK, el.StepsPerAcquire, fx.StepsPerAcquire, out.StepsImprovement,
		el.ResidentBytes, fx.ResidentBytes, out.ResidentFraction)

	// Section 3: quiet run, then the same workload under forced resizes.
	const stormG, stormCycles = 32, 3000
	quiet, _, quietErrs, err := bench6Storm("bench6-quiet", seed, stormG, stormCycles, false)
	if err != nil {
		return fmt.Errorf("bench6: %w", err)
	}
	storm, trans, stormErrs, err := bench6Storm("bench6-storm", seed+1, stormG, stormCycles, true)
	if err != nil {
		return fmt.Errorf("bench6: %w", err)
	}
	out.Resize = bench6Resize{
		Capacity:      1024,
		Goroutines:    stormG,
		CyclesPerG:    stormCycles,
		QuietP50Ns:    quiet.Quantile(0.50),
		QuietP99Ns:    quiet.Quantile(0.99),
		StormP50Ns:    storm.Quantile(0.50),
		StormP99Ns:    storm.Quantile(0.99),
		StormP999Ns:   storm.Quantile(0.999),
		Grows:         trans[0],
		Shrinks:       trans[1],
		DrainCancels:  trans[2],
		AcquireErrors: quietErrs + stormErrs,
	}
	out.ResizeBoundedMet = out.Resize.AcquireErrors == 0 &&
		trans[0]+trans[1] >= bench6MinTransitions &&
		float64(out.Resize.StormP99Ns) <= float64(out.Resize.QuietP99Ns)*(1+bench6StormTolerance)+bench6StormSlack
	fmt.Fprintf(os.Stderr, "bench6: resize storm: quiet p99 %d ns, storm p99 %d ns, %d grows / %d shrinks / %d cancels, %d acquire errors\n",
		out.Resize.QuietP99Ns, out.Resize.StormP99Ns, trans[0], trans[1], trans[2], out.Resize.AcquireErrors)

	if err := writeJSON(path, out); err != nil {
		return err
	}
	var misses []string
	if !out.StepsTargetMet {
		misses = append(misses, fmt.Sprintf("trickle steps/acquire: elastic %.2f not below fixed %.2f",
			out.TrickleStepsElastic, out.TrickleStepsFixed))
	}
	if !out.ResidentTargetMet {
		misses = append(misses, fmt.Sprintf("trickle residency: %.3f of fixed exceeds %.3f",
			out.ResidentFraction, bench6ResidentTarget))
	}
	if !out.ResizeBoundedMet {
		misses = append(misses, fmt.Sprintf("resize storm: p99 %dns vs quiet %dns, %d transitions, %d acquire errors",
			out.Resize.StormP99Ns, out.Resize.QuietP99Ns, trans[0]+trans[1], out.Resize.AcquireErrors))
	}
	if len(misses) > 0 {
		msg := "bench6: headline targets missed (see " + path + ")"
		for _, m := range misses {
			msg += "\n  " + m
		}
		return errors.New(msg)
	}
	if against != "" {
		_, err := checkBaseline("bench6", out, against)
		return err
	}
	return nil
}
