package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"shmrename"
	"shmrename/internal/integrity"
	"shmrename/internal/leasecache"
	"shmrename/internal/longlived"
	"shmrename/internal/prng"
	"shmrename/internal/recovery"
	"shmrename/internal/registry"
	"shmrename/internal/sharded"
	"shmrename/internal/shm"
)

// The traced run replays a workload's seeded stream against a ladder of
// rungs, each one layer taller than the one below it, recording a span
// around every call the driver makes into a layer. A layer's self cost is
// its rung minus the rung below it; the public Arena's self cost is its
// rung minus the rung that builds the same backend stack.

// Rungs, bottom to top.
const (
	rShm = iota
	rLevel
	rElastic
	rSharded
	rCache
	rLease
	rIntegrity
	rArena
	nRungs
)

var rungNames = []string{"shm", "level", "elastic", "sharded", "leasecache", "lease", "integrity", "arena"}

const (
	acquirePasses = 8  // the public arena's acquire passes before full
	levelBase     = 64 // the level ladder's smallest level: names below it are level 0
	leaseBlock    = 64 // burst_cached's LeaseBlocks
	leaseHolder   = 1  // holder identity stamped by the lease rungs
)

// kind is the workload a ladder replays.
type kind int

const (
	kChurn kind = iota
	kBurst
	kRamp
)

// maintTask is a periodic maintenance call the driver makes while a rung
// runs (heartbeat, sweep, scrub), timed as a span.
type maintTask struct {
	call  uint8
	every time.Duration
	fn    func()
}

// rungInst is one built rung.
type rungInst struct {
	ports     []port
	nameBound int
	steps     func() int64 // cumulative shared-memory steps of acquires
	gauges    func() (resident int64, capNow int)
	maint     []maintTask
	upperAt   int
	// finish reads the rung's layer counters into r, checks them and
	// releases the rung's resources.
	finish func(r *rungResult) error
}

// rungResult is what one rung segment measured.
type rungResult struct {
	acqNs, relNs            float64 // mean single-call service time
	acquired                int64   // names granted in the segment
	full                    int64   // full answers, fill included
	steps                   int64   // shared-memory steps of those grants
	upper                   int64   // grants at or above upperAt
	batchNsPerName          float64
	capMean                 float64
	nsPerOp                 float64 // driver loop time per name moved
	lagP99                  float64 // open loop only
	maint                   map[uint8]*hist
	grows, shrinks          int64
	refills, steals, spills int64
	reclaimed               int64
	repaired, quarantined   int64
}

// procPorts gives every worker its own process context on a.
func procPorts(a registry.Arena, seed uint64, nw int) ([]port, func() int64) {
	ps := make([]port, nw)
	pps := make([]*procPort, nw)
	for i := range ps {
		pps[i] = newProcPort(a, seed, i)
		ps[i] = pps[i]
	}
	return ps, func() int64 {
		var s int64
		for _, p := range pps {
			s += p.steps
		}
		return s
	}
}

func wallLease() *longlived.LeaseOpts {
	return &longlived.LeaseOpts{Epochs: shm.WallEpochs{}, Holder: func(*shm.Proc) uint64 { return leaseHolder }}
}

func newLevel(lease *longlived.LeaseOpts) *longlived.LevelArena {
	return longlived.NewLevel(capacity, longlived.LevelConfig{MaxPasses: acquirePasses, WordScan: true, Padded: true, Lease: lease})
}

// maintProc is the process context of a rung's maintenance calls.
func maintProc(seed uint64) *shm.Proc {
	const id = 1 << 20 // clear of the workers' IDs
	return shm.NewProc(id, prng.NewStream(seed, id), nil, 0)
}

// leasedCache builds the lease rung's stack (a lease-stamped level arena
// under word-block caches) with its heartbeat and sweep tasks.
func leasedCache(seed uint64) (*leasecache.Cache, *recovery.Sweeper, []maintTask) {
	c := leasecache.New(newLevel(wallLease()), leasecache.Config{Block: leaseBlock})
	ttl := uint64(leaseTTL / time.Millisecond)
	sw := recovery.NewSweeper(c, recovery.Config{TTL: ttl, Epochs: shm.WallEpochs{}})
	p := maintProc(seed)
	return c, sw, []maintTask{
		{callHeartbeat, heartbeatEvery, func() { longlived.HeartbeatHolder(c, p, leaseHolder, shm.WallEpochs{}.Now()) }},
		{callSweep, reaperEvery, func() { sw.Sweep(p) }},
	}
}

// buildRung builds rung r for workload k.
func buildRung(r int, k kind, seed uint64, nw int) (*rungInst, error) {
	in := &rungInst{upperAt: math.MaxInt, finish: func(*rungResult) error { return nil }}
	footprint := func(f registry.Footprint) func() (int64, int) {
		return func() (int64, int) {
			n := f.ResidentBytes()
			if el, ok := f.(registry.Elastic); ok {
				return n, el.CapacityNow()
			}
			return n, capacity
		}
	}
	switch r {
	case rShm:
		ns := shm.NewNameSpacePadded("perfbench:shm", capacity)
		wps := make([]*wordPort, nw)
		for i := range wps {
			wps[i] = newWordPort(ns, seed, i)
			in.ports = append(in.ports, wps[i])
		}
		in.nameBound = capacity
		in.steps = func() int64 {
			var s int64
			for _, p := range wps {
				s += p.steps
			}
			return s
		}
		in.gauges = func() (int64, int) { return int64(ns.FootprintBytes()), capacity }
	case rLevel:
		lv := newLevel(nil)
		in.ports, in.steps = procPorts(lv, seed, nw)
		in.nameBound, in.gauges, in.upperAt = lv.NameBound(), footprint(lv), levelBase
	case rElastic:
		el := longlived.NewElastic(capacity, longlived.ElasticConfig{MaxPasses: acquirePasses, WordScan: true, Padded: true})
		in.ports, in.steps = procPorts(el, seed, nw)
		in.nameBound, in.gauges = el.NameBound(), footprint(el)
		in.finish = func(res *rungResult) error {
			res.grows, res.shrinks, _ = el.Resizes()
			return nil
		}
	case rSharded:
		cfg := sharded.Config{Shards: min(runtime.GOMAXPROCS(0), capacity), MaxPasses: acquirePasses, WordScan: true, Padded: true}
		if k == kRamp {
			cfg.Elastic = &registry.ElasticParams{}
		}
		sa := sharded.New(capacity, cfg)
		in.ports, in.steps = procPorts(sa, seed, nw)
		in.nameBound, in.gauges = sa.NameBound(), footprint(sa)
	case rCache:
		c := leasecache.New(newLevel(nil), leasecache.Config{Block: leaseBlock})
		in.ports, in.steps = procPorts(c, seed, nw)
		in.nameBound, in.gauges = c.NameBound(), footprint(c)
		in.finish = func(res *rungResult) error {
			res.refills, res.spills, res.steals = c.Stats()
			return nil
		}
	case rLease, rIntegrity:
		c, sw, tasks := leasedCache(seed)
		in.ports, in.steps = procPorts(c, seed, nw)
		in.nameBound, in.gauges, in.maint = c.NameBound(), footprint(c), tasks
		var sc *integrity.Scrubber
		if r == rIntegrity {
			sc = integrity.NewScrubber(c, integrity.Config{
				Epochs: shm.WallEpochs{}, TTL: uint64(leaseTTL / time.Millisecond), Quarantine: true,
				Parked: c.Parked, Purge: c.PurgeParked,
			})
			p := maintProc(seed + 1)
			in.maint = append(in.maint, maintTask{callScrub, scrubEvery, func() { sc.Scrub(p) }})
		}
		in.finish = func(res *rungResult) error {
			res.refills, res.spills, res.steals = c.Stats()
			res.reclaimed = int64(sw.Counters().Reclaimed)
			if sc != nil {
				cs := sc.Counters()
				res.repaired, res.quarantined = int64(cs.Repaired), int64(cs.Quarantined)
			}
			return nil
		}
	case rArena:
		cfg := arenaConfig(k)
		cfg.Seed = seed
		a, err := shmrename.NewArena(cfg)
		if err != nil {
			return nil, err
		}
		in.ports = arenaPorts(a, nw)
		in.nameBound = a.NameBound()
		in.steps = func() int64 { return a.Stats().AcquireSteps }
		in.gauges = func() (int64, int) {
			s := a.Stats()
			return s.ResidentBytes, s.CapacityNow
		}
		if a.Leased() {
			in.maint = heartbeats(a)
		}
		in.finish = func(res *rungResult) error {
			s := a.Stats()
			res.refills, res.spills, res.steals = s.CacheRefills, s.CacheSpills, s.CacheSteals
			res.reclaimed, res.repaired, res.quarantined = s.Reclaimed, s.Repaired, s.Quarantined
			return a.Close()
		}
	}
	return in, nil
}

// arenaConfig is workload k's public arena configuration.
func arenaConfig(k kind) shmrename.ArenaConfig {
	switch k {
	case kBurst:
		return burstConfig()
	case kRamp:
		return rampConfig()
	}
	return churnConfig()
}

// startMaint runs the rung's maintenance tasks on one goroutine, each
// every task.every, timing every call into per-task histograms and span
// log l. The returned stop waits for the goroutine to exit.
func startMaint(tasks []maintTask, l *spanLog) (hists map[uint8]*hist, stop func()) {
	hists = map[uint8]*hist{}
	for _, t := range tasks {
		hists[t.call] = newHist()
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	if len(tasks) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			next := make([]time.Time, len(tasks))
			for i, t := range tasks {
				next[i] = time.Now().Add(t.every)
			}
			for req := int64(0); ; {
				select {
				case <-done:
					return
				case now := <-tick.C:
					for i, t := range tasks {
						if now.Before(next[i]) {
							continue
						}
						next[i] = now.Add(t.every)
						t0 := time.Now()
						t.fn()
						t1 := time.Now()
						hists[t.call].add(int64(t1.Sub(t0)))
						l.record(req, t.call, t0, t1)
						req++
					}
				}
			}
		}()
	}
	return hists, func() { close(done); wg.Wait() }
}

// segment replays workload k on rung in for dur, recording spans into
// fresh logs when traced.
func segment(k kind, r int, in *rungInst, seed uint64, nw int, dur time.Duration, traced bool, epoch time.Time) (*rungResult, []*spanLog, error) {
	res := &rungResult{}
	ws := newWorkers(nw)
	o := newOracle(in.nameBound)
	for _, w := range ws {
		w.upperAt = in.upperAt
	}
	var step stepFn
	startLive := capacity / 2
	switch k {
	case kChurn:
		spec := churnSpec(seed, nw)
		step, startLive = spec.step, spec.startLive
	case kRamp:
		spec := rampSpec(seed, nw)
		step, startLive = spec.step, spec.startLive
	default:
		step = churnSpec(seed, nw).step
	}
	var logs []*spanLog
	var maintLog *spanLog
	if traced {
		maintLog = newSpanLog(epoch, uint8(r))
		logs = append(logs, maintLog)
	}
	// Maintenance (heartbeats above all) runs from the first grant on, so
	// no lease goes stale during the fill and warm-up.
	hists, stopMaint := startMaint(in.maint, maintLog)
	_, fulls, err := fill(in.ports, ws, o, startLive)
	if err != nil {
		stopMaint()
		return nil, nil, fmt.Errorf("%s: fill: %w", rungNames[r], err)
	}
	if fulls > 0 {
		report("%s rung: fill of %d names got %d full answers and %d names", rungNames[r], startLive, fulls, held(ws))
	}
	res.full = fulls
	runClosed(in.ports, ws, o, step, warmOps/4, 0)
	if traced {
		for _, w := range ws {
			w.spans = newSpanLog(epoch, uint8(r))
			logs = append(logs, w.spans)
		}
	}
	for _, w := range ws {
		w.resetWindows()
	}
	steps0 := in.steps()
	smp := startSampler(ws, in.gauges)
	if k == kBurst {
		rung := rateRung{rate: refRate, dur: int64(dur)}
		var scheds []arrivals
		var dues [][]int64
		holdMean := float64(capacity/2) / refRate * 1e9
		for w := 0; w < nw; w++ {
			scheds = append(scheds, openSchedule(seed, w, nw, 0, rung, capacity/2))
			dues = append(dues, initialHolds(seed, w, len(ws[w].held), holdMean))
		}
		ph, _, _ := runOpenAll(in.ports, ws, o, scheds, rung.dur, dues)
		res.acqNs, res.relNs = ph.acq.mean(), ph.rel.mean()
		res.acquired, res.upper = ph.served, ph.upper
		res.full += ph.failed
		res.nsPerOp = float64(ph.busy) / float64(max(ph.events, 1))
		res.lagP99 = ph.lag.quantile(0.99)
	} else {
		elapsed := runClosed(in.ports, ws, o, step, 0, dur)
		_, t := mergeWindows(ws)
		res.acqNs = float64(t.oneAcqNs) / float64(max(t.oneAcqN, 1))
		res.relNs = float64(t.oneRelNs) / float64(max(t.oneRelN, 1))
		res.acquired, res.upper = t.acquired, t.upper
		res.full += t.failed
		if t.batchN > 0 {
			res.batchNsPerName = float64(t.batchNs) / float64(t.batchN)
		}
		res.nsPerOp = float64(elapsed.Nanoseconds()) * float64(nw) / float64(max(t.acquired+t.released, 1))
	}
	_, _, res.capMean = smp.finish()
	stopMaint()
	res.maint = hists
	res.steps = in.steps() - steps0
	if err := o.failed(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", rungNames[r], err)
	}
	if err := drain(in.ports[0], ws, o); err != nil {
		return nil, nil, fmt.Errorf("%s: drain: %w", rungNames[r], err)
	}
	if n := o.held(); n != 0 {
		return nil, nil, fmt.Errorf("%s: %d names still held after draining", rungNames[r], n)
	}
	if err := in.finish(res); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", rungNames[r], err)
	}
	return res, logs, nil
}

func churnTraced(seed uint64, secs float64) *outcome { return ladderTraced(kChurn, seed, secs) }
func burstTraced(seed uint64, secs float64) *outcome { return ladderTraced(kBurst, seed, secs) }
func rampTraced(seed uint64, secs float64) *outcome  { return ladderTraced(kRamp, seed, secs) }

// backendRung is the rung that builds workload k's public arena stack
// without the facade.
func backendRung(k kind) int {
	switch k {
	case kBurst:
		return rIntegrity
	case kRamp:
		return rSharded
	}
	return rLevel
}

// ladderTraced runs every rung for an equal share of secs, then the
// public-Arena rung again untraced for the overhead ratio.
func ladderTraced(k kind, seed uint64, secs float64) *outcome {
	out := &outcome{}
	nw := nWorkers()
	if k == kBurst {
		nw = openWorkers
	}
	dur := time.Duration(secs / (nRungs + 1) * float64(time.Second))
	epoch := time.Now()
	var res [nRungs]*rungResult
	var logs []*spanLog
	for r := 0; r < nRungs; r++ {
		in, err := buildRung(r, k, seed, nw)
		if err != nil {
			out.err = err
			return out
		}
		rr, ls, err := segment(k, r, in, seed, nw, dur, true, epoch)
		if err != nil {
			out.err = err
			return out
		}
		res[r], logs = rr, append(logs, ls...)
	}
	in, err := buildRung(rArena, k, seed, nw)
	if err != nil {
		out.err = err
		return out
	}
	untraced, _, err := segment(k, rArena, in, seed, nw, dur, false, epoch)
	if err != nil {
		out.err = err
		return out
	}
	if k == kBurst {
		for r := rLease; r <= rArena; r++ {
			if res[r].reclaimed != 0 || res[r].quarantined != 0 {
				out.err = fmt.Errorf("clean %s rung reclaimed %d and quarantined %d names", rungNames[r], res[r].reclaimed, res[r].quarantined)
			}
		}
	}
	// The run's counts are the workload's own: its public arena's.
	out.attempted, out.failed = res[rArena].acquired+res[rArena].full, res[rArena].full
	if err := writeSpans(".bench_build/spans", fmt.Sprintf("%s-%d.csv", kindName(k), seed), rungNames, logs); err != nil {
		report("spans not written: %v", err)
	}
	setLadderMetrics(out, k, res, untraced)
	setOneshotIdle(out)
	return out
}

func kindName(k kind) string {
	return [...]string{"churn_tight", "burst_cached", "ramp_elastic"}[k]
}

func perKacq(n, acquired int64) float64 { return float64(n) * 1000 / float64(max(acquired, 1)) }

func maintMean(r *rungResult, call uint8) float64 {
	if h, ok := r.maint[call]; ok {
		return h.mean()
	}
	return 0
}

// setLadderMetrics turns the rung results into the per-layer metrics and
// prints the waterfall; a nil untraced result (a workload that drives no
// arena) sets them all to zero.
func setLadderMetrics(out *outcome, k kind, res [nRungs]*rungResult, untraced *rungResult) {
	if untraced == nil {
		for r := range res {
			res[r] = &rungResult{}
		}
	}
	spa := func(r *rungResult) float64 { return float64(r.steps) / float64(max(r.acquired, 1)) }
	b := res[backendRung(k)]
	a := res[rArena]
	out.set("arena.acquire_self_ns", a.acqNs-b.acqNs, "ns")
	out.set("arena.release_self_ns", a.relNs-b.relNs, "ns")
	out.set("shm.claim_ns", res[rShm].acqNs, "ns")
	out.set("shm.free_ns", res[rShm].relNs, "ns")
	out.set("shm.steps_per_claim", spa(res[rShm]), "steps")
	lv := res[rLevel]
	out.set("level.acquire_ns", lv.acqNs, "ns")
	out.set("level.release_ns", lv.relNs, "ns")
	out.set("level.steps_per_acquire", spa(lv), "steps")
	out.set("level.upper_share", float64(lv.upper)/float64(max(lv.acquired, 1)), "ratio")
	el := res[rElastic]
	out.set("elastic.acquire_ns", el.acqNs, "ns")
	out.set("elastic.release_ns", el.relNs, "ns")
	out.set("elastic.grows", float64(el.grows), "count")
	out.set("elastic.shrinks", float64(el.shrinks), "count")
	out.set("elastic.capacity_mean", el.capMean, "names")
	out.set("elastic.full_per_kacq", perKacq(el.full, el.acquired), "1/kacq")
	sh := res[rSharded]
	out.set("sharded.acquire_ns", sh.acqNs, "ns")
	out.set("sharded.release_ns", sh.relNs, "ns")
	out.set("sharded.steps_per_acquire", spa(sh), "steps")
	out.set("sharded.batch_ns_per_name", sh.batchNsPerName, "ns")
	c := res[rCache]
	out.set("leasecache.acquire_ns", c.acqNs, "ns")
	out.set("leasecache.release_ns", c.relNs, "ns")
	out.set("leasecache.refills_per_kacq", perKacq(c.refills, c.acquired), "1/kacq")
	out.set("leasecache.steals_per_kacq", perKacq(c.steals, c.acquired), "1/kacq")
	out.set("leasecache.spills_per_kacq", perKacq(c.spills, c.acquired), "1/kacq")
	ls := res[rLease]
	out.set("recovery.stamp_ns", ls.acqNs+ls.relNs-c.acqNs-c.relNs, "ns")
	out.set("recovery.heartbeat_ns", maintMean(ls, callHeartbeat), "ns")
	out.set("recovery.sweep_ns", maintMean(ls, callSweep), "ns")
	out.set("recovery.reclaimed", float64(ls.reclaimed+res[rIntegrity].reclaimed+a.reclaimed), "count")
	in := res[rIntegrity]
	out.set("integrity.scrub_ns", maintMean(in, callScrub), "ns")
	out.set("integrity.repaired", float64(in.repaired+a.repaired), "count")
	out.set("integrity.quarantined", float64(in.quarantined+a.quarantined), "count")
	out.set("gen.lag_p99_ns", a.lagP99, "ns")
	if untraced == nil {
		return
	}
	out.set("trace.overhead_ratio", a.nsPerOp/untraced.nsPerOp, "ratio")
	report("rung        acquire ns  release ns  self acq ns  self rel ns  steps/acq    names  full")
	for r, rr := range res {
		var selfA, selfR float64
		if r > 0 {
			below := res[r-1]
			if r == rArena {
				below = b
			}
			selfA, selfR = rr.acqNs-below.acqNs, rr.relNs-below.relNs
		}
		report("%-10s %11.1f %11.1f %12.1f %12.1f %10.3f %8d %5d", rungNames[r], rr.acqNs, rr.relNs, selfA, selfR, spa(rr), rr.acquired, rr.full)
	}
	report("arena untraced: %.1f ns per name moved (traced %.1f)", untraced.nsPerOp, a.nsPerOp)
}

// setOneshotIdle sets the one-shot layers' metrics to zero: no arena
// workload builds a renaming instance or runs the simulator.
func setOneshotIdle(out *outcome) {
	out.set("core.build_ms", 0, "ms")
	out.set("sched.run_ms", 0, "ms")
	out.set("sched.ns_per_step", 0, "ns")
	out.set("sched.steps_total", 0, "steps")
}
