package main

import (
	"fmt"
	"runtime"
	"time"

	"shmrename"
)

// The three arena workloads' untraced runs: each sets up its arena
// (NewArena, fill to the starting occupancy, warm-up), measures for the
// run's seconds in windows, then drains and checks. Between windows it
// sets up further fresh arenas and times fills of fresh arenas, so the
// set-up and fill times sample the same stretch of host time as the
// windows do: on a shared 2-vCPU host, speed shifts by up to 2x for
// seconds at a time, and a set-up timed only at the start lands in one
// such stretch.

const (
	capacity   = 4096
	setupEvery = 4 // windows between set-up samples
	stepFills  = 40
	warmOps    = 20000   // closed-loop ops per worker in each warm-up
	sloNs      = 50_000  // the acquire p99 limit of slo_rate_per_s
	rampPeriod = 1 << 20 // ramp ops per worker per wave
)

// closedSpec is a closed-loop workload: its arena config, starting and
// peak occupancy, and op stream.
type closedSpec struct {
	cfg       shmrename.ArenaConfig
	startLive int
	peakLive  int
	step      stepFn
}

func churnConfig() shmrename.ArenaConfig { return shmrename.ArenaConfig{Capacity: capacity} }

func rampConfig() shmrename.ArenaConfig {
	return shmrename.ArenaConfig{
		Capacity: capacity,
		Backend:  shmrename.ArenaBackendSharded,
		Elastic:  &shmrename.ElasticConfig{},
	}
}

func churnSpec(seed uint64, workers int) closedSpec {
	picks := make([][]uint32, workers)
	for w := range picks {
		picks[w] = churnStream(seed, w, 1<<16)
	}
	return closedSpec{
		cfg:       churnConfig(),
		startLive: capacity - 16,
		peakLive:  capacity - 16,
		step:      churnStep(picks),
	}
}

func rampSpec(seed uint64, workers int) closedSpec {
	lo, hi := capacity/64, capacity*9/10
	ops := make([][]rampOp, workers)
	for w := range ops {
		ops[w] = rampStream(seed, w, rampPeriod, lo/workers, hi/workers, lo/workers)
	}
	return closedSpec{
		cfg:       rampConfig(),
		startLive: lo / workers * workers,
		peakLive:  hi / workers * workers,
		step:      rampStep(ops),
	}
}

func churnE2E(seed uint64, secs float64) *outcome {
	return closedE2E(churnSpec(seed, nWorkers()), seed, secs)
}

func rampE2E(seed uint64, secs float64) *outcome {
	return closedE2E(rampSpec(seed, nWorkers()), seed, secs)
}

// arenaPorts returns the arena as every worker's port.
func arenaPorts(a *shmrename.Arena, n int) []port {
	ps := make([]port, n)
	for i := range ps {
		ps[i] = a
	}
	return ps
}

// probeSteps fills stepFills fresh arenas to n names from one goroutine,
// reading the steps of every acquire, and returns the mean over fills of
// the costliest single acquire (a mean, because the maximum of a small
// integer count flips between neighbours from one seed to the next).
func probeSteps(cfg shmrename.ArenaConfig, seed uint64, n int) (float64, error) {
	var sum int64
	for rep := 0; rep < stepFills; rep++ {
		cfg.Seed = seed ^ uint64(0x9e37+rep)
		a, err := shmrename.NewArena(cfg)
		if err != nil {
			return 0, err
		}
		o := newOracle(a.NameBound())
		ws := newWorkers(1)
		var m int64
		for i := 0; i < n && err == nil; i++ {
			before := a.Stats().AcquireSteps
			var name int
			if name, err = a.Acquire(); err == nil && !ws[0].granted(o, name) {
				err = o.failed()
			}
			m = max(m, a.Stats().AcquireSteps-before)
		}
		if err == nil {
			err = drain(a, ws, o)
		}
		a.Close()
		if err != nil {
			return 0, fmt.Errorf("probe fill: %w", err)
		}
		sum += m
	}
	return float64(sum) / stepFills, nil
}

// timedFill times the workers filling a fresh arena to n names, on a
// freshly collected heap.
func timedFill(cfg shmrename.ArenaConfig, n, workers int) (float64, error) {
	a, err := shmrename.NewArena(cfg)
	if err != nil {
		return 0, err
	}
	o := newOracle(a.NameBound())
	ws := newWorkers(workers)
	runtime.GC()
	d, err := fillArena(a, ws, o, n)
	if err == nil {
		err = drain(a, ws, o)
	}
	a.Close()
	if err != nil {
		return 0, fmt.Errorf("timed fill: %w", err)
	}
	return d.Seconds(), nil
}

// setup builds an arena, has the workers fill it to startLive names and
// warms it up, returning the time taken. A leased arena is heartbeaten
// throughout, so no name it grants goes stale before the run starts its
// own heartbeats.
func setup(cfg shmrename.ArenaConfig, startLive, workers int, warm stepFn) (a *shmrename.Arena, ws []*worker, o *oracle, secs float64, err error) {
	start := time.Now()
	if a, err = shmrename.NewArena(cfg); err != nil {
		return
	}
	if a.Leased() {
		_, stop := startMaint(heartbeats(a), nil)
		defer stop()
	}
	o = newOracle(a.NameBound())
	ws = newWorkers(workers)
	if _, err = fillArena(a, ws, o, startLive); err == nil {
		runClosed(arenaPorts(a, workers), ws, o, warm, warmOps, 0)
		err = o.failed()
	}
	return a, ws, o, time.Since(start).Seconds(), err
}

// setupSampler takes the set-up and fill samples between windows.
type setupSampler struct {
	cfg                 shmrename.ArenaConfig
	seed                uint64
	startLive, peakLive int
	workers             int
	warm                stepFn
	setups, fills       []float64
}

// sample takes the samples due before window i: a fill every window, a
// set-up every setupEvery windows.
func (s *setupSampler) sample(i int) error {
	cfg := s.cfg
	cfg.Seed = s.seed + uint64(i) + 1
	d, err := timedFill(cfg, s.peakLive, s.workers)
	if err != nil {
		return err
	}
	s.fills = append(s.fills, d)
	if i%setupEvery != 0 {
		return nil
	}
	a, ws, o, secs, err := setup(cfg, s.startLive, s.workers, s.warm)
	if err == nil {
		err = drain(a, ws, o)
	}
	if a != nil {
		a.Close()
	}
	s.setups = append(s.setups, secs)
	return err
}

// finishArena drains the arena and checks it returned to empty with its
// counters agreeing with the driver's.
func finishArena(a *shmrename.Arena, ws []*worker, o *oracle, acquired, released int64) error {
	if err := o.failed(); err != nil {
		return err
	}
	var held int64
	for _, w := range ws {
		held += int64(len(w.held))
	}
	if err := drain(a, ws, o); err != nil {
		return err
	}
	st := a.Stats()
	if st.Acquires != acquired || st.Releases != released+held {
		return fmt.Errorf("arena counted %d acquires and %d releases; the driver saw %d and %d",
			st.Acquires, st.Releases, acquired, released+held)
	}
	if h := a.Held(); h != 0 || o.held() != 0 {
		return fmt.Errorf("after draining, the arena holds %d names and the oracle %d", h, o.held())
	}
	return a.Close()
}

// mergeWindows merges the workers' windows index by index (per) and all
// together (total).
func mergeWindows(ws []*worker) (per []*window, total *window) {
	total = newWindow()
	n := -1
	for _, w := range ws {
		for _, win := range w.wins {
			total.merge(win)
		}
		if n < 0 || len(w.wins) < n {
			n = len(w.wins)
		}
	}
	for i := 0; i < n; i++ {
		m := newWindow()
		for _, w := range ws {
			m.merge(w.wins[i])
		}
		per = append(per, m)
	}
	return per, total
}

// perWindow returns the median over windows of f.
func perWindow(per []*window, f func(*window) float64) float64 {
	xs := make([]float64, len(per))
	for i, w := range per {
		xs[i] = f(w)
	}
	return median(xs)
}

// totals sums the names the workers acquired and released over the
// arena's life (fill included) and the largest name they were granted.
func totals(ws []*worker) (acquired, released int64, maxName int) {
	maxName = -1
	for _, w := range ws {
		acquired += w.acquired
		released += w.released
		maxName = max(maxName, w.maxName)
	}
	return
}

// windowLen is the length of one measurement window; a run reports the
// median over its windows of every rate and latency quantile, so a host
// stall that spoils one window does not move the result.
const windowLen = 500 * time.Millisecond

// windowsFor splits secs into whole windows.
func windowsFor(secs float64) (int, time.Duration) {
	n := int(secs/windowLen.Seconds() + 0.5)
	if n < 1 {
		return 1, time.Duration(secs * float64(time.Second))
	}
	return n, windowLen
}

func closedE2E(spec closedSpec, seed uint64, secs float64) *outcome {
	out := &outcome{}
	nw := nWorkers()
	maxSteps, err := probeSteps(spec.cfg, seed, spec.peakLive)
	if err != nil {
		out.err = err
		return out
	}
	cfg := spec.cfg
	cfg.Seed = seed
	a, ws, o, setupS, err := setup(cfg, spec.startLive, nw, spec.step)
	if err != nil {
		out.err = err
		return out
	}
	side := &setupSampler{cfg: spec.cfg, seed: seed, startLive: spec.startLive, peakLive: spec.peakLive,
		workers: nw, warm: spec.step, setups: []float64{setupS}}
	for _, w := range ws {
		w.resetWindows()
	}
	st0 := a.Stats()
	smp := startSampler(ws, func() (int64, int) {
		s := a.Stats()
		return s.ResidentBytes, s.CapacityNow
	})
	nwin, win := windowsFor(secs)
	var elapsed time.Duration
	for i := 0; i < nwin && out.err == nil; i++ {
		out.err = side.sample(i)
		elapsed += runClosed(arenaPorts(a, nw), ws, o, spec.step, 0, win)
	}
	peak, resident, capNow := smp.finish()
	st1 := a.Stats()
	per, total := mergeWindows(ws)
	lifeAcq, lifeRel, maxName := totals(ws)
	if err := finishArena(a, ws, o, lifeAcq, lifeRel); out.err == nil {
		out.err = err
	}
	out.attempted, out.failed = total.attempted, total.failed
	setupS, fillS := median(side.setups), median(side.fills)

	winS := win.Seconds()
	out.set("setup_s", setupS, "s")
	out.set("ops_per_s", perWindow(per, func(w *window) float64 { return float64(w.acquired+w.released) / winS }), "names/s")
	out.set("acquire_p50_ns", perWindow(per, func(w *window) float64 { return w.acq.quantile(0.50) }), "ns")
	out.set("acquire_p99_ns", perWindow(per, func(w *window) float64 { return w.acq.quantile(0.99) }), "ns")
	out.set("release_p50_ns", perWindow(per, func(w *window) float64 { return w.rel.quantile(0.50) }), "ns")
	out.set("release_p99_ns", perWindow(per, func(w *window) float64 { return w.rel.quantile(0.99) }), "ns")
	out.set("steps_per_acquire", float64(st1.AcquireSteps-st0.AcquireSteps)/float64(max(st1.Acquires-st0.Acquires, 1)), "steps")
	out.set("name_span_ratio", perWindow(per, func(w *window) float64 { return float64(w.maxName+1) / float64(max(w.peakLive, 1)) }), "ratio")
	out.set("success_ratio", 1-float64(total.failed)/float64(max(total.attempted, 1)), "ratio")
	out.set("resident_bytes", resident, "bytes")
	out.set("slo_rate_per_s", perWindow(per, func(w *window) float64 {
		return float64(w.acquired) / winS * w.acq.fractionAtMost(sloNs)
	}), "acq/s")
	out.set("rename_s", fillS, "s")
	out.set("max_steps", maxSteps, "steps")
	reportLatencies(total.acq, total.rel)
	rates := make([]string, len(per))
	for i, w := range per {
		rates[i] = fmt.Sprintf("%.3g", float64(w.acquired+w.released)/winS)
	}
	report("measured %.3f s in %d windows of %v: %d names acquired, %d released; peak holders %d, max name %d, mean resident capacity %.0f; names/s per window %v",
		elapsed.Seconds(), len(per), win, total.acquired, total.released, peak, maxName, capNow, rates)
	return out
}

// reportLatencies reports the run's latency quantiles over all samples,
// with their sample counts.
func reportLatencies(acq, rel *hist) {
	report("acquire latency: %d samples, p50 %.1f ns, p99 %.1f ns, p99.9 %.1f ns", acq.n, acq.quantile(0.5), acq.quantile(0.99), acq.quantile(0.999))
	report("release latency: %d samples, p50 %.1f ns, p99 %.1f ns, p99.9 %.1f ns", rel.n, rel.quantile(0.5), rel.quantile(0.99), rel.quantile(0.999))
}
