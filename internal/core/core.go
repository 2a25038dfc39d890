// Package core implements the paper's primary contribution: the randomized
// renaming algorithms of "Randomized Renaming in Shared Memory Systems"
// (Berenbrink, Brinkmann, Elsässer, Friedetzky, Nagel; IPDPS 2015).
//
//   - Tight renaming via τ-registers (§III, Theorem 5): n processes, n
//     names, O(log n) steps w.h.p., O(n) extra space.
//   - Loose renaming, rounds algorithm (§IV, Lemma 6 / Corollary 7):
//     n/(log log n)^ℓ-almost-tight in O((log log n)^ℓ) steps.
//   - Loose renaming, clusters algorithm (§IV, Lemma 8 / Corollary 9):
//     n/(log n)^ℓ-almost-tight in 2ℓ(log log n)² steps.
//
// Every algorithm is packaged as an Instance: the shared structures plus
// the per-process program, runnable on the deterministic adversarial
// simulator (sched.Run) or natively on goroutines (sched.RunNative).
package core

import (
	"math"
	"math/bits"

	"shmrename/internal/sched"
	"shmrename/internal/shm"
)

// Instance is one configured renaming instance: shared memory plus the
// process program. Instances are single-use; build a fresh one per trial.
type Instance interface {
	// Label names the algorithm for reports.
	Label() string
	// N returns the number of processes the instance was built for.
	N() int
	// M returns the size of the name space (names are 0..M-1).
	M() int
	// Body is the process program: it returns the acquired name, or a
	// negative value if the process terminates unnamed (a "survivor" in
	// the almost-tight algorithms of §IV).
	Body(p *shm.Proc) int
	// Probeables exposes the shared structures to adaptive adversaries.
	Probeables() map[string]shm.Probeable
	// Clock returns the hardware clock hook to run after every granted
	// step in simulated mode, or nil if the instance needs none.
	Clock() func()
}

// RunSim executes the instance on the deterministic adversarial simulator
// under policy (round-robin when nil).
func RunSim(inst Instance, seed uint64, policy sched.Policy) []sched.Result {
	return Simulate(inst, sched.Config{Seed: seed, Policy: policy})
}

// Simulate executes the instance on the deterministic simulator under the
// schedule, seed and step budget of cfg; N, Body, AfterStep and Spaces
// come from the instance. A tight instance runs as a step machine
// (sched.RunMachine), which under a fast schedule grants steps without a
// coroutine per process; every other instance runs its Body (sched.Run).
func Simulate(inst Instance, cfg sched.Config) []sched.Result {
	cfg.N, cfg.Body, cfg.AfterStep, cfg.Spaces = inst.N(), inst.Body, inst.Clock(), inst.Probeables()
	if t, ok := inst.(*Tight); ok {
		return sched.RunMachine(cfg, t.step)
	}
	return sched.Run(cfg)
}

// RunNative executes the instance on real goroutines (no adversary, wall
// clock). The instance must have been built in self-clocked mode.
func RunNative(inst Instance, seed uint64) []sched.Result {
	return sched.RunNative(inst.N(), seed, inst.Body)
}

// Log2 returns log₂ x. Convenience used by bounds and geometry code.
func Log2(x float64) float64 { return math.Log2(x) }

// CeilLog2 returns ⌈log₂ n⌉ for n ≥ 1, and 0 for n ≤ 1.
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// LogLog2 returns log₂ log₂ n, the "log log n" of the paper's bounds,
// clamped below at 1 so that tiny inputs do not degenerate the schedules.
func LogLog2(n int) float64 {
	l := math.Log2(float64(n))
	if l < 2 {
		l = 2
	}
	ll := math.Log2(l)
	if ll < 1 {
		return 1
	}
	return ll
}

// LogLogLog2 returns log₂ log₂ log₂ n clamped below at 1; it sizes the
// round count ℓ·log log log n of Lemma 6.
func LogLogLog2(n int) float64 {
	lll := math.Log2(LogLog2(n))
	if lll < 1 {
		return 1
	}
	return lll
}
