package core

import (
	"fmt"
	"sync/atomic"

	"shmrename/internal/sched"
	"shmrename/internal/shm"
	"shmrename/internal/taureg"
)

// TightConfig parameterizes the §III tight renamer.
type TightConfig struct {
	// C is the paper's "suitably large constant" c sizing the clusters.
	// Larger values concentrate more requests per block (better per-round
	// fill probability) at the cost of more rounds. Default 2.
	C float64
	// Geometry selects the cluster layout; default Corrected.
	Geometry GeometryKind
	// SelfClocked builds self-clocked counting devices for native runs.
	// Leave false for simulated runs (the scheduler ticks the clock).
	// Simulated runs may also use self-clocked devices (observably
	// equivalent, cheaper).
	SelfClocked bool
	// Padded lays the name bitmap out one word per cache line. Set it for
	// native runs on real cores, where concurrent claimers would
	// false-share packed bitmap words; leave it false for simulated runs,
	// where the packed layout is smaller and cache-friendlier.
	Padded bool
}

func (c *TightConfig) fill() {
	if c.C == 0 {
		c.C = 2
	}
}

// Tight is the Theorem 5 algorithm: tight renaming of n processes to the
// names [0, n) using an array of τ-registers (with τ = log n), O(log n)
// steps per process w.h.p. and O(n) extra TAS bits.
//
// Per process: in round i it test-and-sets one uniformly random TAS bit in
// cluster C_i; the bit's counting device confirms at most τ winners
// (block discarding); a confirmed winner scans the device's τ name
// registers and must find a free one. A process that loses every round
// enters the deterministic fallback sweep, which walks all devices,
// skipping full ones — the "eventually find a free TAS bit" clause of
// §III made explicit. Capacity counting guarantees the sweep terminates:
// each failed attempt coincides with some other process being confirmed,
// and confirmations are capped at n.
//
// The program is a step machine (step): one call performs one
// shared-memory operation, so under the fast schedules the simulator
// grants steps with plain calls (Simulate); Body drives the same machine
// for the policy, crash and native runners.
type Tight struct {
	cfg TightConfig
	geo Geometry
	arr *taureg.Array

	// Diagnostics (not shared-memory state).
	clusterWins  []atomic.Int64
	fallbackWins atomic.Int64
	sweepPasses  atomic.Int64
}

// NewTight builds a tight-renaming instance for n processes.
func NewTight(n int, cfg TightConfig) *Tight {
	cfg.fill()
	geo := NewGeometry(n, cfg.C, cfg.Geometry)
	mkArray := taureg.NewArray
	if cfg.Padded {
		mkArray = taureg.NewArrayPadded
	}
	t := &Tight{
		cfg:         cfg,
		geo:         geo,
		arr:         mkArray("taux", geo.Width, geo.Specs, cfg.SelfClocked),
		clusterWins: make([]atomic.Int64, len(geo.Clusters)),
	}
	return t
}

// Label implements Instance.
func (t *Tight) Label() string {
	return fmt.Sprintf("tight-tau(c=%g,%s)", t.cfg.C, t.cfg.Geometry)
}

// N implements Instance.
func (t *Tight) N() int { return t.geo.N }

// M implements Instance: tight renaming, m = n.
func (t *Tight) M() int { return t.geo.N }

// Geometry returns the cluster layout (diagnostics, E3/E12).
func (t *Tight) Geometry() Geometry { return t.geo }

// Array exposes the underlying τ-register array (diagnostics, tests).
func (t *Tight) Array() *taureg.Array { return t.arr }

// Probeables implements Instance.
func (t *Tight) Probeables() map[string]shm.Probeable { return t.arr.Probeables() }

// Clock implements Instance: simulated instances tick every device after
// each granted operation; self-clocked instances need no external clock.
func (t *Tight) Clock() func() {
	if t.cfg.SelfClocked {
		return nil
	}
	return t.arr.CycleAll
}

// Body implements Instance: the per-process protocol of §III, the step
// machine (step) driven to completion.
func (t *Tight) Body(p *shm.Proc) int { return sched.Drive(p, t.step) }

// tightPhase is where a process stands in the §III protocol: the
// operation its next step performs.
type tightPhase uint8

const (
	// tightProbe: request a random bit of the current round's cluster.
	tightProbe tightPhase = iota
	// tightResolve: read the device until the requested bit resolves.
	tightResolve
	// tightClaim: test-and-set the won device's name registers in order
	// (taureg.Array.ClaimName's search, one TryName per step).
	tightClaim
	// tightPass: start a fallback sweep pass at the last device.
	tightPass
	// tightFull: read the sweep device's out_reg; skip it when full.
	tightFull
	// tightRead: snapshot the sweep device's in_reg.
	tightRead
	// tightScan: request the next bit free in the snapshot.
	tightScan
)

// tightState is one process's program state; the runner allocates it per
// run (zero value: round 0, about to probe).
type tightState struct {
	in    uint64 // in_reg snapshot of the sweep device
	tok   uint32 // epoch token of the pending request
	round int32  // cluster index; len(Clusters) once sweeping
	dev   int32  // device of the pending request, claim or sweep cursor
	j     int32  // next name register of the claim
	bit   uint8  // requested bit, or next snapshot bit to try
	phase tightPhase
}

// step is one step of the §III protocol (a sched.Machine): in round i a
// process test-and-sets one uniformly random TAS bit of cluster C_i,
// resolves it against the bit's counting device (block discarding
// confirms at most τ winners) and, confirmed, scans the device's τ name
// registers, one of which must be free. A process that loses every round
// enters the fallback sweep.
//
// The sweep is the deterministic safety net — the "eventually find a free
// TAS bit" clause of §III made explicit: walk the devices backwards,
// skip full ones (one out_reg read each), try the free bits of the rest.
// It starts from the last device because residual capacity concentrates
// in the tail: early clusters receive ~2c·log n requests per block and
// fill all τ slots w.h.p., while the truncated geometric tail is
// fluctuation-dominated, so the expected sweep distance is O(log n).
// Termination is guaranteed regardless: a process can only lose a free
// non-full device to a newly confirmed winner, and confirmations are
// capped at n, so some pass must succeed while any capacity remains.
func (t *Tight) step(p *shm.Proc, s *tightState) (int, bool) {
	w := t.geo.Width
	for {
		switch s.phase {
		case tightProbe:
			if int(s.round) == len(t.geo.Clusters) {
				s.phase = tightPass
				continue
			}
			cl := t.geo.Clusters[s.round]
			bit := p.Rand().Intn(cl.Devices * w)
			s.dev, s.bit = int32(cl.FirstDevice+bit/w), uint8(bit%w)
			if ok, tok := t.arr.Device(int(s.dev)).Request(p, int(s.bit)); ok {
				s.tok, s.phase = tok, tightResolve
			} else {
				s.round++
			}
			return -1, false
		case tightResolve:
			switch t.arr.Device(int(s.dev)).ResolveStep(p, int(s.bit), s.tok) {
			case taureg.Won:
				if t.sweeping(s) {
					t.fallbackWins.Add(1)
				}
				s.j, s.phase = 0, tightClaim
			case taureg.Lost:
				if t.sweeping(s) {
					s.bit++
					s.phase = tightScan
				} else {
					s.round++
					s.phase = tightProbe
				}
			}
			return -1, false
		case tightClaim:
			d := int(s.dev)
			if name, ok := t.arr.TryName(p, d, int(s.j)); ok {
				if !t.sweeping(s) {
					t.clusterWins[s.round].Add(1)
				}
				return name, true
			}
			if s.j++; int(s.j) == t.arr.NameCount(d) {
				panic(fmt.Sprintf("core: device %d confirmed more winners than names", d))
			}
			return -1, false
		case tightPass:
			t.sweepPasses.Add(1)
			s.dev, s.phase = int32(t.arr.NumDevices()-1), tightFull
		case tightFull:
			if s.dev < 0 {
				s.phase = tightPass
				continue
			}
			dev := t.arr.Device(int(s.dev))
			if dev.Tau() == 0 {
				s.dev--
				continue
			}
			if dev.Full(p) {
				s.dev--
			} else {
				s.phase = tightRead
			}
			return -1, false
		case tightRead:
			s.in = t.arr.Device(int(s.dev)).ReadRequests(p)
			s.bit, s.phase = 0, tightScan
			return -1, false
		case tightScan:
			b := int(s.bit)
			for b < w && s.in&(uint64(1)<<b) != 0 {
				b++
			}
			if b == w {
				s.dev--
				s.phase = tightFull
				continue
			}
			s.bit = uint8(b)
			if ok, tok := t.arr.Device(int(s.dev)).Request(p, b); ok {
				s.tok, s.phase = tok, tightResolve
			} else {
				s.bit++
			}
			return -1, false
		}
	}
}

// sweeping reports whether the process has lost every round and is in
// the fallback sweep.
func (t *Tight) sweeping(s *tightState) bool { return int(s.round) == len(t.geo.Clusters) }

// Stats reports how the assignment was won: per-cluster confirmations and
// fallback confirmations. Valid after a run completes.
func (t *Tight) Stats() TightStats {
	s := TightStats{
		ClusterWins: make([]int64, len(t.clusterWins)),
		Fallback:    t.fallbackWins.Load(),
		SweepPasses: t.sweepPasses.Load(),
	}
	for i := range t.clusterWins {
		w := t.clusterWins[i].Load()
		s.ClusterWins[i] = w
		s.ClusterTotal += w
	}
	return s
}

// TightStats summarizes where names were won (diagnostics for E2/E12).
type TightStats struct {
	ClusterWins  []int64 // per-round confirmations
	ClusterTotal int64   // sum over rounds
	Fallback     int64   // names won through the fallback sweep
	SweepPasses  int64   // total sweep passes across processes
}
