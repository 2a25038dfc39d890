package shmrename

// Golden determinism test: the scheduler refactor (interned SpaceIDs,
// packed bitmaps, coroutine runner) must not change which names any process
// acquires for a fixed (seed, schedule). The arrays below were recorded
// from the pre-refactor channel-based simulator at the seed commit; the
// current simulator must reproduce them bit for bit.

import (
	"testing"
	"time"

	"shmrename/internal/core"
	"shmrename/internal/sched"
)

var goldenNames = map[string][]int{
	"loose-fifo":   {28, 13, 45, 50, 51, 11, 10, 59, 40, 18, 49, 34, 2, 19, 8, 47, 43, 17, 36, 26, 61, 4, 46, 27, 58, 33, 5, 56, 24, 15, 55, 39, 23, 38, 63, -1, 3, 1, 9, 53, 42, 48, 62, 35, 21, 30, 37, 12, 20, 0, -1, 44, 57, 25, 29, 41, 22, 6, -1, 31, 7, 54, 14, 52},
	"loose-rr":     {28, 13, 45, 50, 51, 11, 10, 59, 40, 18, 49, 34, 2, 19, 8, 47, 43, 17, 36, 26, 61, 4, 46, 27, 58, 33, 5, 56, 24, 15, 55, 39, 23, 38, 63, -1, 3, 1, 9, 53, 42, 48, 62, 35, 21, 30, 37, 12, 20, 0, -1, 44, 57, 25, 29, 41, 22, 6, -1, 31, 7, 54, 14, 52},
	"loose-random": {28, 8, 38, 50, 51, 11, 10, 55, 40, 4, 49, 16, 2, 21, 34, 6, 58, 17, 36, 26, 61, 18, 46, 27, 13, 33, 5, 56, 24, 15, 59, 39, 23, 12, 63, -1, -1, 31, 9, 19, 32, 48, 62, 29, -1, 43, 37, 42, 35, 1, 7, 44, 57, 25, 45, 41, 22, 53, 47, 30, 3, 54, 14, 52},
	"tight-fifo":   {12, 13, 0, 55, 41, 6, 14, 45, 35, 1, 2, 57, 49, 24, 30, 7, 50, 15, 53, 62, 58, 59, 8, 9, 25, 10, 51, 26, 11, 27, 48, 52, 18, 36, 46, 19, 47, 20, 37, 31, 21, 16, 54, 61, 60, 38, 56, 32, 33, 42, 17, 39, 63, 3, 28, 43, 29, 4, 34, 22, 40, 44, 23, 5},
	"tight-rr":     {12, 13, 0, 24, 6, 7, 14, 25, 8, 1, 2, 15, 3, 26, 30, 9, 16, 17, 27, 18, 19, 50, 10, 11, 28, 44, 35, 29, 48, 38, 62, 51, 20, 36, 21, 22, 31, 45, 39, 32, 23, 58, 33, 52, 4, 40, 41, 53, 46, 47, 42, 37, 55, 5, 49, 43, 59, 60, 34, 56, 54, 61, 57, 63},
}

func namesOf(res []sched.Result) []int {
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.Name
	}
	return out
}

func checkGolden(t *testing.T, key string, res []sched.Result) {
	t.Helper()
	got := namesOf(res)
	want := goldenNames[key]
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", key, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: process %d got name %d, want golden %d", key, i, got[i], want[i])
		}
	}
}

func TestGoldenDeterminismLooseRounds(t *testing.T) {
	inst := core.NewLooseRounds(64, core.RoundsConfig{Ell: 2})
	res := sched.Run(sched.Config{N: 64, Seed: 42, Fast: sched.FastFIFO, Body: inst.Body})
	checkGolden(t, "loose-fifo", res)

	inst = core.NewLooseRounds(64, core.RoundsConfig{Ell: 2})
	res = sched.Run(sched.Config{N: 64, Seed: 42, Policy: sched.RoundRobin(),
		Body: inst.Body, Spaces: inst.Probeables()})
	checkGolden(t, "loose-rr", res)

	inst = core.NewLooseRounds(64, core.RoundsConfig{Ell: 2})
	res = sched.Run(sched.Config{N: 64, Seed: 42, Fast: sched.FastRandom, Body: inst.Body})
	checkGolden(t, "loose-random", res)
}

func TestGoldenDeterminismTight(t *testing.T) {
	inst := core.NewTight(64, core.TightConfig{SelfClocked: true})
	res := sched.Run(sched.Config{N: 64, Seed: 7, Fast: sched.FastFIFO, Body: inst.Body})
	checkGolden(t, "tight-fifo", res)

	// The same run through Simulate, which grants the FIFO schedule's
	// steps to the tight step machine instead of resuming coroutines.
	inst = core.NewTight(64, core.TightConfig{SelfClocked: true})
	res = core.Simulate(inst, sched.Config{Seed: 7, Fast: sched.FastFIFO})
	checkGolden(t, "tight-fifo", res)

	// Externally clocked round-robin: exercises the AfterStep ordering of
	// the policy path against the same golden.
	inst = core.NewTight(64, core.TightConfig{})
	res = sched.Run(sched.Config{N: 64, Seed: 7, Policy: sched.RoundRobin(),
		Body: inst.Body, AfterStep: inst.Clock(), Spaces: inst.Probeables()})
	checkGolden(t, "tight-rr", res)
}

// TestPerfSmoke is the benchmark guard of tier-1: one simulated E2 instance
// at n = 2^14 must finish far inside a generous wall-clock ceiling. A gross
// simulator regression (e.g. an O(n) copy creeping back into the grant
// loop) blows the ceiling and fails tests instead of only showing up in
// benchmarks. The post-refactor run takes ~0.15s on a 2015-class core; the
// ceiling leaves 40x headroom for slow CI machines.
func TestPerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke needs a full E2 run")
	}
	const n = 1 << 14
	// The ceiling gates the uninstrumented hot path; race instrumentation
	// slows the simulator several-fold without telling us anything about a
	// regression, so the race-job budget is proportionally wider.
	ceiling := 6 * time.Second
	if raceDetector {
		ceiling *= 4
	}
	start := time.Now()
	inst := core.NewTight(n, core.TightConfig{SelfClocked: true})
	res := sched.Run(sched.Config{N: n, Seed: 1, Fast: sched.FastFIFO, Body: inst.Body})
	elapsed := time.Since(start)
	if err := sched.VerifyUnique(res, n); err != nil {
		t.Fatal(err)
	}
	if got := sched.CountStatus(res, sched.Named); got != n {
		t.Fatalf("%d of %d processes named", got, n)
	}
	if elapsed > ceiling {
		t.Fatalf("E2 n=%d took %v, ceiling %v: simulator hot path regressed", n, elapsed, ceiling)
	}
	t.Logf("E2 n=%d in %v (ceiling %v)", n, elapsed, ceiling)
}

// TestPerfSmokeMachine guards the step-machine runner the way
// TestPerfSmoke guards the coroutine runner: one simulated tight rename at
// n = 2^16 under the random schedule — the shape Rename runs for
// Schedule "random" — must finish far inside a wall-clock ceiling. It
// takes ~0.15-0.2 s on a 2-vCPU x86-64 host; the ceiling leaves 30x
// headroom, so a per-grant O(n) cost blows it. (The coroutine runner takes
// ~2.7 s there, inside the ceiling; sched's TestRunMachineStartsNoCoroutines
// is what pins the runner choice.)
func TestPerfSmokeMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke needs a full n = 2^16 run")
	}
	const n = 1 << 16
	ceiling := 6 * time.Second
	if raceDetector {
		ceiling *= 4
	}
	start := time.Now()
	inst := core.NewTight(n, core.TightConfig{SelfClocked: true})
	res := core.Simulate(inst, sched.Config{Seed: 1, Fast: sched.FastRandom})
	elapsed := time.Since(start)
	if err := sched.VerifyUnique(res, n); err != nil {
		t.Fatal(err)
	}
	if got := sched.CountStatus(res, sched.Named); got != n {
		t.Fatalf("%d of %d processes named", got, n)
	}
	if elapsed > ceiling {
		t.Fatalf("tight n=%d on the machine runner took %v, ceiling %v: simulator hot path regressed", n, elapsed, ceiling)
	}
	t.Logf("tight n=%d, random schedule, machine runner in %v (ceiling %v)", n, elapsed, ceiling)
}
