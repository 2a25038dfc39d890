package shmrename

import (
	"errors"
	"fmt"
	"math"

	"shmrename/internal/baseline"
	"shmrename/internal/core"
	"shmrename/internal/prng"
	"shmrename/internal/sched"
	"shmrename/internal/sortnet"
)

// Algorithm selects a renaming algorithm.
type Algorithm string

// Available algorithms.
const (
	// TightTau is the paper's §III algorithm: tight renaming (m = n) via
	// τ-registers in O(log n) steps w.h.p.
	TightTau Algorithm = "tight-tau"
	// LooseRounds is the Lemma 6 almost-tight algorithm on n names; up
	// to ~2n/(log log n)^ℓ processes may stay unnamed (survivors).
	LooseRounds Algorithm = "loose-rounds"
	// LooseClusters is the Lemma 8 almost-tight algorithm on n names; up
	// to ~n/(log n)^ℓ survivors.
	LooseClusters Algorithm = "loose-clusters"
	// Corollary7 is loose renaming on m = n + 2n/(log log n)^ℓ names in
	// O((log log n)^ℓ) steps: Lemma 6 plus overflow backfill.
	Corollary7 Algorithm = "corollary7"
	// Corollary9 is loose renaming on m = n + 2n/(log n)^ℓ names in
	// O((log log n)²) steps: Lemma 8 plus overflow backfill.
	Corollary9 Algorithm = "corollary9"
	// SortNet is the sorting-network renaming of Alistarh et al. [7]
	// instantiated with a Batcher odd-even mergesort network (baseline).
	SortNet Algorithm = "sortnet"
	// UniformProbe is folklore random probing on a tight space (baseline).
	UniformProbe Algorithm = "uniform-probe"
	// LinearScan is the deterministic Θ(n) baseline.
	LinearScan Algorithm = "linear-scan"
	// Adaptive renames without knowing the participant count in advance
	// (the §IV remark on [8]'s framework): names stay within O(k) for k
	// participants at O(log k) steps, on an O(n) arena.
	Adaptive Algorithm = "adaptive"
)

// Algorithms lists every available algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{
		TightTau, LooseRounds, LooseClusters,
		Corollary7, Corollary9, SortNet, UniformProbe, LinearScan, Adaptive,
	}
}

// Config parameterizes one renaming execution.
type Config struct {
	// N is the number of processes (required, >= 1).
	N int
	// Algorithm defaults to TightTau.
	Algorithm Algorithm
	// Ell is the ℓ parameter of the loose algorithms: 0 selects the
	// default 1; explicit values must lie in [1, MaxEll].
	Ell int
	// C is the cluster constant of TightTau: 0 selects the default 2;
	// explicit values must lie in [1, MaxC].
	C float64
	// Seed drives all randomness; equal seeds give equal outcomes in
	// simulated mode.
	Seed uint64
	// Simulate runs the deterministic adversarial simulator instead of
	// native goroutines.
	Simulate bool
	// Schedule selects the simulated adversary: "fifo" (default),
	// "random", "round-robin", "collider", "starve".
	Schedule string
	// CrashFraction crashes this fraction of processes at adversarial
	// times (simulated mode only).
	CrashFraction float64
}

// Result reports one renaming execution.
type Result struct {
	// Algorithm echoes the configured algorithm's label.
	Algorithm string
	// M is the name-space size; names lie in [0, M).
	M int
	// Names[pid] is the name acquired by process pid, or -1 for a
	// survivor (loose almost-tight algorithms) or crashed process.
	Names []int
	// Steps[pid] is the number of shared-memory accesses by process pid.
	Steps []int64
	// MaxSteps is the execution's step complexity: max over Steps.
	MaxSteps int64
	// Survivors counts processes that finished unnamed.
	Survivors int
	// Crashed counts processes crashed by the adversary.
	Crashed int
}

// Verify checks that all acquired names are pairwise distinct and within
// [0, M). A nil return means the execution was correct.
func (r *Result) Verify() error {
	owner := make(map[int]int, len(r.Names))
	for pid, name := range r.Names {
		if name < 0 {
			continue
		}
		if name >= r.M {
			return fmt.Errorf("process %d holds out-of-range name %d (m=%d)", pid, name, r.M)
		}
		if prev, dup := owner[name]; dup {
			return fmt.Errorf("name %d held by both %d and %d", name, prev, pid)
		}
		owner[name] = pid
	}
	return nil
}

// Parameter bounds enforced by Rename. Values beyond them are virtually
// always configuration mistakes: the ℓ round schedules grow exponentially
// in ℓ, and cluster constants beyond MaxC make the geometry degenerate.
const (
	// MaxEll bounds Config.Ell.
	MaxEll = 8
	// MaxC bounds Config.C.
	MaxC = 64.0
)

// Rename executes the configured renaming and returns the outcome.
func Rename(cfg Config) (*Result, error) {
	if cfg.N < 1 {
		return nil, errors.New("shmrename: Config.N must be >= 1")
	}
	// Validate tuning parameters up front instead of silently clamping
	// them to defaults inside the algorithm constructors: a mistyped value
	// must fail loudly, not report results for a different configuration.
	if cfg.Ell < 0 || cfg.Ell > MaxEll {
		return nil, fmt.Errorf("shmrename: Config.Ell must be 0 (default) or in [1, %d], got %d", MaxEll, cfg.Ell)
	}
	if math.IsNaN(cfg.C) || (cfg.C != 0 && (cfg.C < 1 || cfg.C > MaxC)) {
		return nil, fmt.Errorf("shmrename: Config.C must be 0 (default) or in [1, %g], got %g", MaxC, cfg.C)
	}
	if cfg.CrashFraction < 0 || cfg.CrashFraction > 1 {
		return nil, errors.New("shmrename: CrashFraction must be in [0, 1]")
	}
	if cfg.CrashFraction > 0 && !cfg.Simulate {
		return nil, errors.New("shmrename: crash injection requires Simulate")
	}
	inst, err := buildInstance(cfg)
	if err != nil {
		return nil, err
	}
	var results []sched.Result
	if cfg.Simulate {
		results, err = runSimulated(inst, cfg)
		if err != nil {
			return nil, err
		}
	} else {
		results = sched.RunNative(inst.N(), cfg.Seed, inst.Body)
	}
	out := &Result{
		Algorithm: inst.Label(),
		M:         inst.M(),
		Names:     make([]int, cfg.N),
		Steps:     make([]int64, cfg.N),
	}
	for _, r := range results {
		out.Names[r.PID] = r.Name
		out.Steps[r.PID] = r.Steps
		if r.Steps > out.MaxSteps {
			out.MaxSteps = r.Steps
		}
		switch r.Status {
		case sched.Unnamed:
			out.Survivors++
		case sched.Crashed:
			out.Crashed++
		case sched.Limited:
			return nil, fmt.Errorf("shmrename: process %d exceeded its step budget (bug or pathological schedule)", r.PID)
		}
	}
	return out, nil
}

// buildInstance constructs the core instance for a config. Native mode
// needs self-clocked counting devices; simulated mode works either way and
// uses self-clocked devices too (observably equivalent, cheaper).
func buildInstance(cfg Config) (core.Instance, error) {
	algo := cfg.Algorithm
	if algo == "" {
		algo = TightTau
	}
	switch algo {
	case TightTau:
		// Operation indices are int32 on the hot path, so name spaces are
		// capped at 2^31 names.
		if cfg.N >= 1<<31 {
			return nil, fmt.Errorf("shmrename: TightTau supports n < 2^31, got %d", cfg.N)
		}
		return core.NewTight(cfg.N, core.TightConfig{C: cfg.C, SelfClocked: true, Padded: !cfg.Simulate}), nil
	case LooseRounds:
		return core.NewLooseRounds(cfg.N, core.RoundsConfig{Ell: cfg.Ell}), nil
	case LooseClusters:
		if cfg.N < 2 {
			return nil, errors.New("shmrename: LooseClusters requires N >= 2")
		}
		return core.NewLooseClusters(cfg.N, core.ClustersConfig{Ell: cfg.Ell}), nil
	case Corollary7:
		return core.NewCorollary7(cfg.N, core.RoundsConfig{Ell: cfg.Ell}, nil), nil
	case Corollary9:
		if cfg.N < 2 {
			return nil, errors.New("shmrename: Corollary9 requires N >= 2")
		}
		return core.NewCorollary9(cfg.N, core.ClustersConfig{Ell: cfg.Ell}, nil), nil
	case SortNet:
		return sortnet.NewRenamerN(cfg.N), nil
	case UniformProbe:
		return baseline.NewUniformProbe(cfg.N), nil
	case LinearScan:
		return baseline.NewLinearScan(cfg.N), nil
	case Adaptive:
		return core.NewAdaptive(cfg.N, core.AdaptiveConfig{}), nil
	default:
		return nil, fmt.Errorf("shmrename: unknown algorithm %q", algo)
	}
}

func runSimulated(inst core.Instance, cfg Config) ([]sched.Result, error) {
	simCfg := sched.Config{Seed: cfg.Seed}
	var policy sched.Policy
	switch cfg.Schedule {
	case "", "fifo":
		simCfg.Fast = sched.FastFIFO
	case "random":
		simCfg.Fast = sched.FastRandom
	case "round-robin":
		policy = sched.RoundRobin()
	case "collider":
		policy = sched.Collider()
	case "starve":
		victims := cfg.N / 10
		if victims < 1 {
			victims = 1
		}
		pids := make([]int, victims)
		for i := range pids {
			pids[i] = i
		}
		policy = sched.Starve(pids...)
	default:
		return nil, fmt.Errorf("shmrename: unknown schedule %q", cfg.Schedule)
	}
	if cfg.CrashFraction > 0 {
		if policy == nil {
			policy = sched.RoundRobin()
			simCfg.Fast = sched.FastOff
		}
		plan := sched.PlanCrashes(cfg.N, cfg.CrashFraction, 4, prng.New(cfg.Seed^0x9e3779b9))
		policy = sched.WithCrashes(policy, plan)
	}
	simCfg.Policy = policy
	return core.Simulate(inst, simCfg), nil
}
