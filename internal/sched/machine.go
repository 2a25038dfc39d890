package sched

import (
	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

// Machine is a process program in step-machine form. Each call performs
// exactly one shared-memory operation on p — the next one the program
// performs — and reports whether the program has finished, with the name
// it acquired (negative: none). S is the per-process state; it starts
// zeroed. A call may compute locally before its operation, but must not
// touch shared memory ahead of that operation's Proc.Step, so a step that
// the budget or the adversary stops has no effect.
type Machine[S any] func(p *shm.Proc, s *S) (name int, done bool)

// Drive runs m to completion on p and returns its name: a Machine in Body
// form, gated step by step like any other body.
func Drive[S any](p *shm.Proc, m Machine[S]) int {
	var s S
	for {
		if name, done := m(p, &s); done {
			return name
		}
	}
}

// RunMachine is Run for a program given as a Machine. Under a fast
// schedule (cfg.Policy nil, cfg.Fast set) it grants steps with plain calls
// into the machine on gateless Procs — no coroutine per process; the grant
// order, step counts and results are those Run produces for the program's
// Body form. Every other run, which needs the parked pending set or a
// crash point, goes to Run with Body = Drive(m). cfg.Body is ignored.
func RunMachine[S any](cfg Config, m Machine[S]) []Result {
	if cfg.Policy != nil || cfg.Fast == FastOff {
		cfg.Body = func(p *shm.Proc) int { return Drive(p, m) }
		return Run(cfg)
	}
	if cfg.N <= 0 {
		panic("sched: RunMachine requires N > 0")
	}
	r := &machines[S]{m: m, limit: cfg.StepLimit, procs: make([]machineProc[S], cfg.N)}
	if r.limit == 0 {
		r.limit = DefaultStepLimit
	}
	for pid := range r.procs {
		mp := &r.procs[pid]
		mp.rng.SeedStream(cfg.Seed, pid)
		mp.proc.Init(pid, &mp.rng, nil, r.limit)
	}
	return runFast(cfg, r)
}

// machineProc is one process of a machine run; the runner allocates one
// slice of them per run, so a process's context, coins and program state
// share cache lines.
type machineProc[S any] struct {
	proc  shm.Proc
	rng   prng.Rand
	state S
}

// machines delivers fast-schedule grants by calling machine steps.
type machines[S any] struct {
	m     Machine[S]
	limit int64
	procs []machineProc[S]
}

// activate: a machine is parked on its first operation from the start (it
// performs at least one).
func (r *machines[S]) activate(int) (Result, bool) { return Result{}, true }

func (r *machines[S]) grant(pid int32, all bool) (res Result, parked bool) {
	mp := &r.procs[pid]
	p := &mp.proc
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(shm.StepLimit); !ok {
				panic(rec) // any other panic is a bug: propagate
			}
			res, parked = Result{PID: int(pid), Name: -1, Steps: p.Steps(), Status: Limited}, false
		}
	}()
	for {
		before := p.Steps()
		name, done := r.m(p, &mp.state)
		if p.Steps() != before+1 {
			panic("sched: a machine step must perform exactly one operation")
		}
		if done {
			res = Result{PID: int(pid), Name: -1, Steps: p.Steps(), Status: Unnamed}
			if name >= 0 {
				res.Name, res.Status = name, Named
			}
			return res, false
		}
		if p.Steps() == r.limit {
			// A resumed coroutine runs on to its next operation within
			// the grant and meets the step budget there; a machine meets
			// it in its next step, which therefore runs now, so both
			// runners finish the process at the same grant. The step
			// panics in Proc.Step, before touching shared memory.
			r.m(p, &mp.state)
			panic("sched: a machine step past the step budget performed no operation")
		}
		if !all {
			return Result{}, true
		}
	}
}
