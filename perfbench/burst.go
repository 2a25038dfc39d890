package main

import (
	"fmt"
	"sync"
	"time"

	"shmrename"
)

// burst_cached: the production-shaped configuration under an open loop.

const (
	leaseTTL       = 250 * time.Millisecond
	heartbeatEvery = leaseTTL / 5 // lease hygiene: renew well within TTL/4
	reaperEvery    = 100 * time.Millisecond
	scrubEvery     = 100 * time.Millisecond
	refRate        = 200_000 // arrivals/s of the latency rung
)

// openWorkers is the open loop's worker count. With two, the public
// arena's pooled per-P process contexts map the workers onto the lease
// cache's slots in a pattern the Go scheduler picks and changes mid-run:
// acquire service times switch between two modes (p50 ~150 and ~250 ns on
// a 2-vCPU Xeon) and steps/acquire between 0.016 and 0.097 from run to
// run, too wide for any bound. One pacer keeps the mapping fixed, and
// leaves a CPU to the heartbeat, reaper and scrub goroutines.
const openWorkers = 1

// sloLadder is the fixed ladder of offered rates (arrivals/s) searched for
// slo_rate_per_s.
var sloLadder = []float64{50_000, 100_000, 200_000, 400_000, 800_000}

func burstConfig() shmrename.ArenaConfig {
	return shmrename.ArenaConfig{
		Capacity:    capacity,
		LeaseBlocks: 64,
		Lease:       &shmrename.LeaseConfig{TTL: leaseTTL, Reaper: reaperEvery},
		Integrity:   &shmrename.IntegrityConfig{ScrubInterval: scrubEvery, Quarantine: true},
	}
}

// ladderReps is how many times each ladder rate is offered. The reps are
// spread across the run between latency windows and judged pooled, so a
// rate's verdict samples the host over the whole run, not one stretch.
const ladderReps = 5

// burstRungs lays out the run: half the time at refRate in windows, half
// on the ladder, each rate offered ladderReps times for an equal share
// (capped at 300k arrivals), the two interleaved. group[i] is 0 for a
// latency window and g for a rung of sloLadder[g-1].
func burstRungs(secs float64) (rungs []rateRung, group []int) {
	nref, win := windowsFor(secs / 2)
	each := int64(secs / 2 * 1e9 / float64(len(sloLadder)*ladderReps))
	nladder := len(sloLadder) * ladderReps
	refs := 0
	for l := 0; l < nladder; l++ {
		g := l%len(sloLadder) + 1
		r := sloLadder[g-1]
		rungs = append(rungs, rateRung{rate: r, dur: min(each, int64(300_000/r*1e9))})
		group = append(group, g)
		for ; refs < nref && refs*nladder <= l*nref; refs++ {
			rungs = append(rungs, rateRung{rate: refRate, dur: int64(win)})
			group = append(group, 0)
		}
	}
	for ; refs < nref; refs++ {
		rungs = append(rungs, rateRung{rate: refRate, dur: int64(win)})
		group = append(group, 0)
	}
	return rungs, group
}

// heartbeats is the lease-hygiene task: renew the arena's leases every
// heartbeatEvery.
func heartbeats(a *shmrename.Arena) []maintTask {
	return []maintTask{{callHeartbeat, heartbeatEvery, func() { a.Heartbeat() }}}
}

// runOpenAll serves every worker's schedule for one rung of dur
// nanoseconds on its port, and returns the merged record, the due times
// of the names each worker still holds (rebased to the rung's end) and
// the wall time taken.
func runOpenAll(ports []port, ws []*worker, o *oracle, scheds []arrivals, dur int64, dues [][]int64) (*phaseStats, [][]int64, time.Duration) {
	per := make([]*phaseStats, len(ws))
	rest := make([][]int64, len(ws))
	var wg sync.WaitGroup
	epoch := time.Now().Add(100 * time.Microsecond)
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i], rest[i] = runOpen(w, ports[i], o, scheds[i], dur, dues[i], epoch)
		}()
	}
	wg.Wait()
	m := newPhaseStats()
	for _, ps := range per {
		m.merge(ps)
	}
	return m, rest, time.Since(epoch)
}

// sloRate evaluates each ladder rate on its pooled rungs: it passes when
// the acquire p99 is within sloNs, at least 0.9 of the offered arrivals
// per second were served, counted up to each rung's last completion, and
// the median event started within sloNs of its due time (the backlog did
// not grow). It returns the achieved rate of the highest passing rate.
func sloRate(rungs []rateRung, group []int, phases []*phaseStats) float64 {
	best := 0.0
	for g, rate := range sloLadder {
		ph := newPhaseStats()
		var span, dur int64
		for i, rg := range rungs {
			if group[i] == g+1 {
				ph.merge(phases[i])
				span += max(phases[i].lastDone, rg.dur)
				dur += rg.dur
			}
		}
		achieved := float64(ph.served+ph.failed) / (float64(span) / 1e9)
		offered := float64(ph.offered) / (float64(dur) / 1e9)
		p99 := ph.acq.quantile(0.99)
		pass := p99 <= sloNs && achieved >= 0.9*offered && ph.lag.quantile(0.5) <= sloNs && ph.failed == 0
		if pass {
			best = achieved
		}
		report("ladder rate %.0f/s x%d: offered %d, served %d, failed %d, released %d, achieved %.0f/s; acquire p50 %.0f p99 %.0f ns, from due p50 %.0f p99 %.0f ns; release p99 %.0f ns, from due %.0f ns; lag p50 %.0f p99 %.0f ns; pass %v",
			rate, ladderReps, ph.offered, ph.served, ph.failed, ph.released, achieved, ph.acq.quantile(0.5), p99,
			ph.acqDue.quantile(0.5), ph.acqDue.quantile(0.99), ph.rel.quantile(0.99), ph.relDue.quantile(0.99),
			ph.lag.quantile(0.5), ph.lag.quantile(0.99), pass)
	}
	return best
}

func burstE2E(seed uint64, secs float64) *outcome {
	out := &outcome{}
	nw := openWorkers
	bcfg := burstConfig()
	maxSteps, err := probeSteps(bcfg, seed, capacity/2)
	if err != nil {
		out.err = err
		return out
	}
	rungs, group := burstRungs(secs)
	scheds := make([][]arrivals, len(rungs))
	for i, rg := range rungs {
		for w := 0; w < nw; w++ {
			scheds[i] = append(scheds[i], openSchedule(seed, w, nw, i, rg, capacity/2))
		}
	}
	warm := churnSpec(seed, nw).step
	cfg := bcfg
	cfg.Seed = seed
	a, ws, o, setupS, err := setup(cfg, capacity/2, nw, warm)
	if err != nil {
		out.err = err
		return out
	}
	side := &setupSampler{cfg: bcfg, seed: seed, startLive: capacity / 2, peakLive: capacity / 2,
		workers: nw, warm: warm, setups: []float64{setupS}}
	dues := make([][]int64, nw)
	for w := range dues {
		dues[w] = initialHolds(seed, w, len(ws[w].held), float64(capacity/2)/refRate*1e9)
	}
	st0 := a.Stats()
	_, stopHB := startMaint(heartbeats(a), nil)
	smp := startSampler(ws, func() (int64, int) {
		s := a.Stats()
		return s.ResidentBytes, s.CapacityNow
	})
	var phases []*phaseStats
	var elapsed time.Duration
	for i, rg := range rungs {
		if out.err = side.sample(i); out.err != nil {
			break
		}
		ph, rest, d := runOpenAll(arenaPorts(a, nw), ws, o, scheds[i], rg.dur, dues)
		phases, dues, elapsed = append(phases, ph), rest, elapsed+d
	}
	peak, resident, _ := smp.finish()
	stopHB()
	st1 := a.Stats()
	lifeAcq, lifeRel, maxName := totals(ws)
	if err := finishArena(a, ws, o, lifeAcq, lifeRel); out.err == nil {
		out.err = err
	}
	if out.err == nil && (st1.Quarantined != 0 || st1.Reclaimed != 0 || a.Health() != shmrename.Healthy) {
		out.err = fmt.Errorf("clean run reported quarantined %d, reclaimed %d, health %v", st1.Quarantined, st1.Reclaimed, a.Health())
	}
	if out.err != nil {
		return out
	}
	all := newPhaseStats()
	for _, ph := range phases {
		all.merge(ph)
	}
	out.attempted, out.failed = all.served+all.failed, all.failed

	var refs []*phaseStats
	var winS float64
	for i, g := range group {
		if g == 0 {
			refs, winS = append(refs, phases[i]), float64(rungs[i].dur)/1e9
		}
	}
	perRef := func(f func(*phaseStats) float64) float64 {
		xs := make([]float64, len(refs))
		for i, ph := range refs {
			xs[i] = f(ph)
		}
		return median(xs)
	}
	out.set("setup_s", median(side.setups), "s")
	out.set("ops_per_s", perRef(func(p *phaseStats) float64 { return float64(p.served+p.released) / winS }), "names/s")
	out.set("acquire_p50_ns", perRef(func(p *phaseStats) float64 { return p.acq.quantile(0.50) }), "ns")
	out.set("acquire_p99_ns", perRef(func(p *phaseStats) float64 { return p.acq.quantile(0.99) }), "ns")
	out.set("release_p50_ns", perRef(func(p *phaseStats) float64 { return p.rel.quantile(0.50) }), "ns")
	out.set("release_p99_ns", perRef(func(p *phaseStats) float64 { return p.rel.quantile(0.99) }), "ns")
	out.set("steps_per_acquire", float64(st1.AcquireSteps-st0.AcquireSteps)/float64(max(st1.Acquires-st0.Acquires, 1)), "steps")
	out.set("name_span_ratio", perRef(func(p *phaseStats) float64 { return float64(p.maxName+1) / float64(max(p.peakLive, 1)) }), "ratio")
	out.set("success_ratio", 1-float64(all.failed)/float64(max(all.served+all.failed, 1)), "ratio")
	out.set("resident_bytes", resident, "bytes")
	out.set("slo_rate_per_s", sloRate(rungs, group, phases), "acq/s")
	out.set("rename_s", median(side.fills), "s")
	out.set("max_steps", maxSteps, "steps")
	refAll := newPhaseStats()
	for _, ph := range refs {
		refAll.merge(ph)
	}
	reportLatencies(refAll.acq, refAll.rel)
	report("open loop %.3f s, peak holders %d, max name %d; at %d/s: acquire from due p50 %.0f p99 %.0f ns, generator lag p99 %.0f ns; heartbeats %d, sweeps %d, scrub passes %d, refills %d, steals %d, spills %d",
		elapsed.Seconds(), peak, maxName, refRate, refAll.acqDue.quantile(0.5), refAll.acqDue.quantile(0.99), refAll.lag.quantile(0.99), st1.Heartbeats-st0.Heartbeats, st1.Sweeps-st0.Sweeps,
		st1.ScrubPasses-st0.ScrubPasses, st1.CacheRefills-st0.CacheRefills, st1.CacheSteals-st0.CacheSteals, st1.CacheSpills-st0.CacheSpills)
	return out
}
