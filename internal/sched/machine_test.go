package sched

import (
	"reflect"
	"runtime"
	"testing"

	"shmrename/internal/shm"
)

// probeState is probeMachine's program state: its misses so far.
type probeState struct {
	tries int
}

// probeMachine is probeBody as a Machine: each step test-and-sets one
// random name; every third process gives up after four misses, so runs
// mix Named and Unnamed results.
func probeMachine(space *shm.NameSpace) Machine[probeState] {
	return func(p *shm.Proc, s *probeState) (int, bool) {
		i := p.Rand().Intn(space.Size())
		if space.TryClaim(p, i) {
			return i, true
		}
		s.tries++
		if p.ID()%3 == 0 && s.tries == 4 {
			return -1, true
		}
		return -1, false
	}
}

func TestRunMachineMatchesRun(t *testing.T) {
	for _, fast := range []FastMode{FastFIFO, FastRandom} {
		for _, limit := range []int64{0, 1, 2, 3} {
			for _, tick := range []bool{false, true} {
				var ticks [2]int
				run := func(machine bool) []Result {
					space := shm.NewNameSpace("names", 80)
					m := probeMachine(space)
					cfg := Config{N: 64, Seed: 3, Fast: fast, StepLimit: limit}
					if tick {
						k := &ticks[0]
						if machine {
							k = &ticks[1]
						}
						cfg.AfterStep = func() { *k++ }
					}
					if machine {
						return RunMachine(cfg, m)
					}
					cfg.Body = func(p *shm.Proc) int { return Drive(p, m) }
					return Run(cfg)
				}
				want, got := run(false), run(true)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fast=%d limit=%d tick=%v: RunMachine differs from Run", fast, limit, tick)
				}
				if ticks[0] != ticks[1] {
					t.Fatalf("fast=%d limit=%d: AfterStep ran %d times under Run, %d under RunMachine", fast, limit, ticks[0], ticks[1])
				}
				if limit > 0 && CountStatus(got, Limited) == 0 {
					t.Fatalf("fast=%d limit=%d: no process limited", fast, limit)
				}
			}
		}
	}
}

// TestRunMachineStartsNoCoroutines pins the runner choice: under a fast
// schedule the machine runner calls steps directly (no iter.Pull
// coroutine, which is a goroutine, per process); under a policy it falls
// back to coroutines.
func TestRunMachineStartsNoCoroutines(t *testing.T) {
	const n = 64
	for _, tc := range []struct {
		cfg        Config
		coroutines bool
	}{
		{Config{N: n, Fast: FastFIFO}, false},
		{Config{N: n, Fast: FastRandom}, false},
		{Config{N: n, Policy: RoundRobin()}, true},
		{Config{N: n}, true},
	} {
		space := shm.NewNameSpace("names", 2*n)
		m := probeMachine(space)
		base := runtime.NumGoroutine()
		peak := 0
		RunMachine(tc.cfg, func(p *shm.Proc, s *probeState) (int, bool) {
			peak = max(peak, runtime.NumGoroutine()-base)
			return m(p, s)
		})
		if tc.coroutines != (peak >= n/2) {
			t.Fatalf("fast=%d policy=%v: %d goroutines beyond the caller's during the run", tc.cfg.Fast, tc.cfg.Policy != nil, peak)
		}
	}
}

// TestRunMachineRejectsStepWithoutOperation: a step that performs no
// shared-memory operation would shift the grant order; the runner panics.
func TestRunMachineRejectsStepWithoutOperation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a step without an operation")
		}
	}()
	RunMachine(Config{N: 2, Fast: FastFIFO}, func(p *shm.Proc, s *probeState) (int, bool) {
		return -1, false
	})
}
