package core

import (
	"fmt"
	"reflect"
	"testing"

	"shmrename/internal/sched"
)

// runBoth runs the same tight configuration twice — once on the coroutine
// runner (sched.Run with Body) and once through Simulate, which takes the
// step-machine runner under a fast schedule — and fails unless every
// per-process result and the win statistics agree.
func runBoth(t *testing.T, n int, cfg TightConfig, sc sched.Config) []sched.Result {
	t.Helper()
	co := NewTight(n, cfg)
	sc.N, sc.Body, sc.AfterStep = n, co.Body, co.Clock()
	want := sched.Run(sc)

	mach := NewTight(n, cfg)
	got := Simulate(mach, sched.Config{Seed: sc.Seed, Fast: sc.Fast, StepLimit: sc.StepLimit})
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("first difference at pid %d: machine %+v, coroutine %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("machine runner returned %d results, coroutine %d", len(got), len(want))
	}
	if gs, ws := mach.Stats(), co.Stats(); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("stats: machine %+v, coroutine %+v", gs, ws)
	}
	return got
}

func TestMachineMatchesCoroutineRunner(t *testing.T) {
	ns := []int{1, 2, 3, 64, 1000, 4096}
	if testing.Short() {
		ns = ns[:4]
	}
	for _, n := range ns {
		for _, fast := range []sched.FastMode{sched.FastFIFO, sched.FastRandom} {
			for _, selfClocked := range []bool{true, false} {
				if !selfClocked && n > 1000 && raceDetector {
					// An external clock ticks every device after every
					// grant: ~1.5 s per run at n = 4096, ~40x that under
					// the race detector. n = 1000 covers the same ordering.
					continue
				}
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("n=%d/fast=%d/self=%v/seed=%d", n, fast, selfClocked, seed)
					t.Run(name, func(t *testing.T) {
						res := runBoth(t, n, TightConfig{SelfClocked: selfClocked}, sched.Config{Seed: seed, Fast: fast})
						if got := sched.CountStatus(res, sched.Named); got != n {
							t.Fatalf("%d of %d named", got, n)
						}
					})
				}
			}
		}
	}
}

// TestMachineMatchesCoroutineRunnerLimited: a budget too small to finish
// must stop the same processes at the same step on both runners, and the
// machine runner must grant in the same order afterwards.
func TestMachineMatchesCoroutineRunnerLimited(t *testing.T) {
	for _, fast := range []sched.FastMode{sched.FastFIFO, sched.FastRandom} {
		for _, limit := range []int64{1, 2, 3, 5} {
			for _, selfClocked := range []bool{true, false} {
				res := runBoth(t, 64, TightConfig{SelfClocked: selfClocked}, sched.Config{Seed: 4, Fast: fast, StepLimit: limit})
				if sched.CountStatus(res, sched.Limited) == 0 {
					t.Fatalf("fast=%d limit=%d: no process limited", fast, limit)
				}
			}
		}
	}
}

// TestMachineMatchesCoroutineRunnerFallback: the paper-literal geometry
// sends most processes through the fallback sweep, so every sweep phase
// runs on both runners.
func TestMachineMatchesCoroutineRunnerFallback(t *testing.T) {
	for _, fast := range []sched.FastMode{sched.FastFIFO, sched.FastRandom} {
		runBoth(t, 256, TightConfig{Geometry: PaperLiteral, SelfClocked: true}, sched.Config{Seed: 5, Fast: fast})
		runBoth(t, 128, TightConfig{Geometry: PaperLiteral}, sched.Config{Seed: 6, Fast: fast})
	}
}

// TestMachineUnderPolicies: Simulate with a policy runs Body — the same
// machine, driven through the coroutine gate — and must match sched.Run.
func TestMachineUnderPolicies(t *testing.T) {
	const n = 64
	plan := sched.PlanCrashes(n, 0.25, 4, prngFor(9))
	for _, policy := range []func() sched.Policy{
		sched.RoundRobin,
		sched.Collider,
		func() sched.Policy { return sched.WithCrashes(sched.Collider(), plan) },
	} {
		co := NewTight(n, TightConfig{})
		want := sched.Run(sched.Config{N: n, Seed: 3, Policy: policy(), Body: co.Body,
			AfterStep: co.Clock(), Spaces: co.Probeables()})
		mach := NewTight(n, TightConfig{})
		got := Simulate(mach, sched.Config{Seed: 3, Policy: policy()})
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(mach.Stats(), co.Stats()) {
			t.Fatalf("policy %s: Simulate differs from sched.Run", policy().Name())
		}
	}
}
