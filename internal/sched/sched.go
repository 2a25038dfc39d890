// Package sched simulates the asynchronous shared-memory model of §II.A of
// the paper and provides the adaptive adversary that controls it.
//
// In simulated mode every process runs as a pull-style coroutine
// (iter.Pull); each of its shared-memory operations yields to the
// scheduler. The scheduler waits until every live process is parked on its
// next operation, hands the full pending set (operation kinds and targets,
// which embody the process coin flips) to a Policy — the adversary — and
// grants exactly one operation by resuming that process's coroutine. The
// adversary may instead crash the process, after which it takes no further
// steps. Executions are therefore deterministic given (seed, policy), and
// the adversary enjoys the full adaptivity the model grants: it sees the
// state of all processes before every scheduling decision.
//
// The oblivious fast schedules (FastFIFO, FastRandom) need no pending set,
// so a program written as a step machine (Machine, one shared-memory
// operation per call) runs without coroutines: RunMachine grants a step
// by calling the machine on a gateless Proc. One schedule loop (runFast)
// produces the grant order for both runners; they differ only in how a
// grant is delivered, so a machine run grants, counts and ends exactly as
// the coroutine run of its Body form (Drive).
//
// Cost model (see PERF.md for measurements): a coroutine grant is two
// coroutine switches — resume into the process, yield back at its next
// operation — with no channel operations, no goroutine scheduler
// involvement, and no allocation; a machine grant is a plain call. The
// policy path keeps a dense PID-indexed slot array plus an incrementally
// maintained pending view: re-parking the granted process is an O(1)
// in-place update, and the only O(live) work is the single removal when a
// process finishes, which happens once per process per run. Earlier
// revisions parked processes on per-step channel round-trips; the
// coroutine runner removed that constant entirely.
//
// The package also provides a native runner that executes the same process
// bodies on real goroutines with no gating, for wall-clock benchmarks.
package sched

import (
	"fmt"
	"iter"
	"sort"
	"sync"

	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

// Body is a process: it receives its context and returns the name it
// acquired, or a negative value if it terminated without one.
type Body func(p *shm.Proc) int

// Status describes how a process ended.
type Status uint8

// Process outcomes.
const (
	// Named: the process terminated holding a name.
	Named Status = iota
	// Unnamed: the process terminated without a name (algorithm gave up).
	Unnamed
	// Crashed: the adversary crashed the process.
	Crashed
	// Limited: the process exceeded its step budget (indicates a bug or a
	// deliberately tiny budget in failure-injection tests).
	Limited
)

// String returns the lower-case status name.
func (s Status) String() string {
	switch s {
	case Named:
		return "named"
	case Unnamed:
		return "unnamed"
	case Crashed:
		return "crashed"
	case Limited:
		return "limited"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Result is the outcome of one process in one execution.
type Result struct {
	PID    int
	Name   int // acquired name, or -1
	Steps  int64
	Status Status
}

// Request is one pending shared-memory operation as the adversary sees it.
type Request struct {
	PID   int
	Op    shm.Op
	Steps int64 // steps the process has already taken
}

// World gives a policy read access to the current shared state, so that an
// adaptive adversary can, for example, prefer granting operations that are
// doomed to fail. Probing costs the processes nothing.
type World interface {
	// Taken reports whether the TAS object targeted by op is already set.
	// It returns false when the target's space is not registered.
	Taken(op shm.Op) bool
}

// Decision is a policy's choice: grant pending[Index], or crash that
// process instead of granting it the step.
type Decision struct {
	Index int
	Crash bool
}

// Policy is the adaptive adversary. Next is called with the pending
// operations of all parked processes, sorted by PID, and must return a
// decision about one of them. The policy receives its own deterministic
// randomness derived from the run seed.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Next chooses the next scheduling decision. pending is non-empty.
	Next(w World, pending []Request, r *prng.Rand) Decision
}

// FastMode selects a cheap built-in schedule instead of a Policy for
// large-n measurements. The adaptive Policy path materializes the full
// pending set before every grant; the fast modes keep O(1) bookkeeping per
// grant and remain deterministic.
type FastMode uint8

// Fast scheduling modes.
const (
	// FastOff uses the adaptive Policy path (the default).
	FastOff FastMode = iota
	// FastFIFO grants operations in arrival order (processes initially
	// ordered by PID) — a fair asynchronous schedule equivalent in
	// spirit to round-robin.
	FastFIFO
	// FastRandom grants a uniformly random pending operation each time,
	// driven by the run seed — the oblivious random adversary.
	FastRandom
)

// Config parameterizes a simulated run.
type Config struct {
	// N is the number of processes, with PIDs 0..N-1.
	N int
	// Seed drives every coin flip of the run: each process gets stream
	// prng.NewStream(Seed, pid), the policy gets an independent stream.
	Seed uint64
	// Policy is the adversary. Defaults to RoundRobin if nil.
	Policy Policy
	// Fast selects a built-in O(1) schedule when Policy is nil; ignored
	// otherwise.
	Fast FastMode
	// Body is the process program.
	Body Body
	// AfterStep, if non-nil, runs after every granted operation completes.
	// It models free hardware progress, e.g. the counting-device clock of
	// §II.C, and costs the processes no steps.
	AfterStep func()
	// StepLimit bounds the steps of each process; 0 means the default
	// safety budget (DefaultStepLimit).
	StepLimit int64
	// Spaces registers Probeable structures by label so adaptive policies
	// can inspect targets. The labels are resolved to interned SpaceIDs
	// once at run start; per-step lookups are dense array indexing.
	// Optional.
	Spaces map[string]shm.Probeable
}

// DefaultStepLimit is the per-process safety budget used when Config leaves
// StepLimit zero. It is far above any bound the algorithms should reach; a
// process hitting it indicates a non-terminating execution.
const DefaultStepLimit = 1 << 22

// procRunner drives one simulated process as a pull-style coroutine.
// Exactly one of the scheduler and the process executes at any time;
// resuming the runner is a direct stack switch, not a goroutine wakeup.
// It doubles as the process's shm.Gate. The yield token is zero-sized: the
// parked operation is published through the op/steps fields, which the
// strict scheduler/process alternation keeps race-free.
type procRunner struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	op    shm.Op // pending operation, valid while parked
	steps int64  // steps taken when parked
	// allow is the scheduler's answer to the pending park: written before
	// the resume, read by Await when its yield returns.
	allow bool
	// credit is a batch of pre-granted steps: while positive, Await
	// consumes a credit and proceeds without yielding. The fast schedules
	// use it when exactly one live process remains — every remaining grant
	// must go to it anyway, so the tail runs without coroutine switches.
	credit int64
	res    Result
}

// procState bundles everything one simulated process needs. One slice per
// run holds all of it, and the slices are recycled through a pool: at large
// n the per-run garbage would otherwise dominate GC work.
type procState struct {
	runner procRunner
	proc   shm.Proc
	rng    prng.Rand
}

var statePool sync.Pool // of *[]procState

// getStates returns a pooled state slice of length n (contents dirty; every
// field is re-initialized by the caller via initRunner/Init/SeedStream).
func getStates(n int) []procState {
	if v := statePool.Get(); v != nil {
		if s := *v.(*[]procState); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]procState, n)
}

// putStates recycles a state slice once its run has fully finished (every
// coroutine exhausted, results copied out). The exhausted coroutine
// closures are dropped first: they captured the run's Body (usually a
// whole algorithm instance), which must not stay reachable from the pool.
func putStates(s []procState) {
	for i := range s {
		s[i].runner.next = nil
		s[i].runner.yield = nil
		s[i].proc = shm.Proc{}
	}
	statePool.Put(&s)
}

// Await implements shm.Gate by yielding to the scheduler.
func (r *procRunner) Await(p *shm.Proc, op shm.Op) bool {
	if r.credit > 0 {
		r.credit--
		return true
	}
	r.op, r.steps = op, p.Steps()
	if !r.yield(struct{}{}) {
		// Defensive: iter.Pull's yield reports false only after a stop(),
		// which the runner never issues for a live coroutine. If that ever
		// changes, unwinding as a crash keeps the deferred recovery able
		// to record a result.
		panic(shm.Crash{PID: p.ID()})
	}
	return r.allow
}

// initRunner builds the coroutine for one process, resetting every runner
// field (the state may be recycled from a previous run). The body does not
// start executing until the first next() call.
func initRunner(r *procRunner, pid int, p *shm.Proc, body Body) {
	r.yield = nil
	r.op = shm.Op{}
	r.steps = 0
	r.allow = false
	r.credit = 0
	r.res = Result{}
	r.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		r.yield = yield
		res := Result{PID: pid, Name: -1}
		defer func() {
			if rec := recover(); rec != nil {
				switch rec.(type) {
				case shm.Crash:
					res.Status = Crashed
				case shm.StepLimit:
					res.Status = Limited
				default:
					panic(rec) // any other panic is a bug: propagate
				}
				res.Name = -1
			}
			res.Steps = p.Steps()
			r.res = res
		}()
		name := body(p)
		if name >= 0 {
			res.Name = name
			res.Status = Named
		} else {
			res.Status = Unnamed
		}
	})
}

// resume grants the process its pending step (allow=false crashes it
// instead) and runs it to its next transition: parked again on op/steps
// (ok) or finished (!ok, result in r.res).
func (r *procRunner) resume(allow bool) bool {
	r.allow = allow
	_, ok := r.next()
	return ok
}

// worldView resolves Taken probes by dense SpaceID indexing: no string
// hashing on the adversary's query path.
type worldView struct {
	spaces []shm.Probeable // indexed by shm.SpaceID
}

func newWorldView(m map[string]shm.Probeable) worldView {
	w := worldView{spaces: make([]shm.Probeable, shm.NumSpaces())}
	for label, p := range m {
		id := shm.InternSpace(label)
		if int(id) >= len(w.spaces) {
			grown := make([]shm.Probeable, int(id)+1)
			copy(grown, w.spaces)
			w.spaces = grown
		}
		w.spaces[id] = p
	}
	return w
}

func (w worldView) Taken(op shm.Op) bool {
	if op.Space < 0 || int(op.Space) >= len(w.spaces) {
		return false
	}
	s := w.spaces[op.Space]
	if s == nil {
		return false
	}
	return s.Probe(int(op.Index))
}

// Run executes a simulated run and returns one Result per process, sorted
// by PID. It panics on configuration errors (N <= 0, nil Body).
func Run(cfg Config) []Result {
	if cfg.N <= 0 {
		panic("sched: Run requires N > 0")
	}
	if cfg.Body == nil {
		panic("sched: Run requires a Body")
	}
	limit := cfg.StepLimit
	if limit == 0 {
		limit = DefaultStepLimit
	}

	states := getStates(cfg.N)
	for pid := range states {
		st := &states[pid]
		st.rng.SeedStream(cfg.Seed, pid)
		st.proc.Init(pid, &st.rng, &st.runner, limit)
		initRunner(&st.runner, pid, &st.proc, cfg.Body)
	}

	if cfg.Policy == nil && cfg.Fast != FastOff {
		res := runFast(cfg, coroutines(states))
		putStates(states)
		return res
	}
	policy := cfg.Policy
	if policy == nil {
		policy = RoundRobin()
	}

	policyRand := prng.NewStream(cfg.Seed, -7)
	world := newWorldView(cfg.Spaces)

	// view is the policy-facing pending set, always sorted by PID (the
	// initial activation below runs in PID order and updates preserve
	// order); pos[pid] is pid's index in view or -1. Re-parking the
	// granted process is an O(1) in-place update; the only O(live)
	// operation is the removal when a process finishes, once per process
	// per run — there is no per-step O(n) copy.
	var (
		view    = make([]Request, 0, cfg.N)
		pos     = make([]int32, cfg.N)
		results = make([]Result, 0, cfg.N)
	)
	for pid := range states {
		// First activation: run the process to its first operation. Its
		// target depends only on private state (every shared access parks
		// first), so activating in PID order is equivalent to the
		// settle-then-sort of a concurrent start.
		r := &states[pid].runner
		if _, parked := r.next(); parked {
			pos[pid] = int32(len(view))
			view = append(view, Request{PID: pid, Op: r.op, Steps: r.steps})
		} else {
			pos[pid] = -1
			results = append(results, r.res)
		}
	}

	remove := func(pid int) {
		i := int(pos[pid])
		copy(view[i:], view[i+1:])
		view = view[:len(view)-1]
		pos[pid] = -1
		for j := i; j < len(view); j++ {
			pos[view[j].PID] = int32(j)
		}
	}

	for len(results) < cfg.N {
		dec := policy.Next(world, view, policyRand)
		if dec.Index < 0 || dec.Index >= len(view) {
			panic(fmt.Sprintf("sched: policy %q returned index %d out of range [0,%d)",
				policy.Name(), dec.Index, len(view)))
		}
		pid := view[dec.Index].PID
		r := &states[pid].runner
		if r.resume(!dec.Crash) {
			view[pos[pid]] = Request{PID: pid, Op: r.op, Steps: r.steps}
		} else {
			results = append(results, r.res)
			remove(pid)
		}
		if cfg.AfterStep != nil && !dec.Crash {
			// The granted operation completed before the process parked
			// again or finished, so the hardware hook is ordered after it.
			cfg.AfterStep()
		}
	}

	sort.Slice(results, func(i, j int) bool { return results[i].PID < results[j].PID })
	putStates(states)
	return results
}

// grantee is how a fast schedule's grants reach the processes. The
// schedule loop (runFast) decides the grant order; a grantee only delivers
// grants: the coroutine runner resumes a parked coroutine, the machine
// runner calls one machine step. Both report a process that finished with
// its result.
type grantee interface {
	// activate runs process pid up to its first operation and reports
	// whether it parked there; FastRandom activates every process before
	// the first grant.
	activate(pid int) (Result, bool)
	// grant grants pid its next operation — with all, every operation it
	// has left — and reports whether it parked again. Under FastFIFO,
	// which activates no process up front, it activates pid first.
	grant(pid int32, all bool) (Result, bool)
}

// runFast is the O(1)-per-grant scheduling loop used by FastFIFO and
// FastRandom, shared by both runners. The queue holds bare PIDs — the
// fast schedules are oblivious to operation targets.
func runFast(cfg Config, g grantee) []Result {
	var (
		queue   = make([]int32, 0, cfg.N)
		head    = 0
		done    = 0
		results = make([]Result, cfg.N)
		rng     = prng.NewStream(cfg.Seed, -7)
	)

	if cfg.Fast == FastFIFO {
		// Lazy start: the FIFO schedule's first round is PIDs 0..N-1
		// regardless of operation targets, so processes are not activated
		// up front; a process's first grant activates it as well. The
		// grant order of shared-memory operations is identical to an eager
		// settle-then-grant schedule.
		for pid := range cfg.N {
			queue = append(queue, int32(pid))
		}
	} else {
		for pid := range cfg.N {
			if res, parked := g.activate(pid); parked {
				queue = append(queue, int32(pid))
			} else {
				results[pid] = res
				done++
			}
		}
	}

	for done < cfg.N {
		var pid int32
		switch cfg.Fast {
		case FastFIFO:
			pid = queue[head]
			head++
			queue = compactFIFO(queue, &head)
		case FastRandom:
			idx := head + rng.Intn(len(queue)-head)
			pid = queue[idx]
			queue[idx] = queue[len(queue)-1]
			queue = queue[:len(queue)-1]
		default:
			panic("sched: unknown fast mode")
		}
		// Sole live process: the rest of the schedule is all its, so it
		// runs to completion in one grant (only when no per-step hook
		// must fire).
		all := cfg.AfterStep == nil && head == len(queue)
		if res, parked := g.grant(pid, all); parked {
			queue = append(queue, pid)
		} else {
			results[pid] = res
			done++
		}
		if cfg.AfterStep != nil {
			cfg.AfterStep()
		}
	}
	return results
}

// coroutines delivers fast-schedule grants by resuming coroutines.
type coroutines []procState

func (c coroutines) activate(pid int) (Result, bool) {
	r := &c[pid].runner
	_, parked := r.next()
	return r.res, parked
}

func (c coroutines) grant(pid int32, all bool) (Result, bool) {
	r := &c[pid].runner
	if all {
		r.credit = int64(^uint64(0) >> 1)
	} else if r.yield == nil {
		// Not yet started (FIFO's lazy start): one step of credit merges
		// the activation with the first granted operation in a single
		// resume — two coroutine switches saved per process.
		r.credit = 1
	}
	parked := r.resume(true)
	return r.res, parked
}

// compactFIFO reclaims the consumed prefix of the FIFO queue once it
// dominates the backing array. When the live tail has shrunk well below the
// high-water mark, it reallocates instead of shifting in place, so the
// peak-sized backing array does not stay pinned for the rest of the run.
func compactFIFO(queue []int32, head *int) []int32 {
	h := *head
	if h < 1024 || h*2 < len(queue) {
		return queue
	}
	live := len(queue) - h
	if cap(queue) >= 4096 && cap(queue) >= 4*live {
		fresh := make([]int32, live, 2*live+1)
		copy(fresh, queue[h:])
		queue = fresh
	} else {
		copy(queue, queue[h:])
		queue = queue[:live]
	}
	*head = 0
	return queue
}

// RunNative executes the same body on real goroutines with no gating and
// returns per-process results sorted by PID. It is not deterministic (real
// hardware races decide interleavings); it exists for wall-clock
// benchmarking and end-to-end sanity on multicore.
func RunNative(n int, seed uint64, body Body) []Result {
	if n <= 0 {
		panic("sched: RunNative requires n > 0")
	}
	results := make([]Result, n)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			p := shm.NewProc(pid, prng.NewStream(seed, pid), nil, DefaultStepLimit)
			res := Result{PID: pid, Name: -1}
			defer func() {
				if r := recover(); r != nil {
					switch r.(type) {
					case shm.Crash:
						res.Status = Crashed
					case shm.StepLimit:
						res.Status = Limited
					default:
						panic(r)
					}
				}
				res.Steps = p.Steps()
				results[pid] = res
			}()
			name := body(p)
			if name >= 0 {
				res.Name = name
				res.Status = Named
			} else {
				res.Status = Unnamed
			}
		}(pid)
	}
	wg.Wait()
	return results
}

// VerifyUnique checks that the named processes in results hold pairwise
// distinct names within [0, m). It returns an error describing the first
// violation, or nil. Post-run verification used by tests and the harness.
func VerifyUnique(results []Result, m int) error {
	owner := make([]int, m)
	for i := range owner {
		owner[i] = -1
	}
	for _, r := range results {
		if r.Status != Named {
			continue
		}
		if r.Name < 0 || r.Name >= m {
			return fmt.Errorf("process %d holds out-of-range name %d (space size %d)", r.PID, r.Name, m)
		}
		if prev := owner[r.Name]; prev >= 0 {
			return fmt.Errorf("name %d held by both process %d and process %d", r.Name, prev, r.PID)
		}
		owner[r.Name] = r.PID
	}
	return nil
}

// MaxSteps returns the step complexity of the execution: the maximum number
// of steps over all processes (crashed processes included; their partial
// steps count toward the maximum they reached).
func MaxSteps(results []Result) int64 {
	var m int64
	for _, r := range results {
		if r.Steps > m {
			m = r.Steps
		}
	}
	return m
}

// CountStatus returns how many results carry the given status.
func CountStatus(results []Result, s Status) int {
	c := 0
	for _, r := range results {
		if r.Status == s {
			c++
		}
	}
	return c
}
