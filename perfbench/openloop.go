package main

import (
	"math"
	"runtime"
	"time"
)

// The open loop: every worker owns a Poisson arrival stream and a heap of
// release due times. It serves whichever event is due first, spinning
// (and yielding to the arena's maintenance goroutines) while nothing is
// due. Each call is timed twice: its own duration (service time), and
// from the time the event was due, which charges a stall to every event
// it delays; lag is how late the loop started each event.

// rateRung is one offered rate of the open loop and how long it is
// offered.
type rateRung struct {
	rate float64 // arrivals per second over all workers
	dur  int64   // nanoseconds
}

// arrivals is one worker's schedule for one rung: gaps between successive
// arrivals (the first from the rung's start) and the holds, in
// nanoseconds.
type arrivals struct {
	gap, hold []uint32
}

// openSchedule draws one worker's Poisson arrivals for rung i (its share
// of the rung's rate) with exponential holds sized so that Little's-law
// occupancy is occupancy names.
func openSchedule(seed uint64, worker, workers, i int, r rateRung, occupancy int) arrivals {
	rg := rng(seed, streamBurst+16*(i+1), worker)
	gapMean := 1e9 * float64(workers) / r.rate
	holdMean := float64(occupancy) / r.rate * 1e9
	var a arrivals
	var t float64
	var last int64
	for {
		if t += rg.ExpFloat64() * gapMean; t >= float64(r.dur) {
			return a
		}
		at := int64(t)
		a.gap = append(a.gap, uint32(at-last))
		a.hold = append(a.hold, uint32(min(math.Ceil(rg.ExpFloat64()*holdMean), math.MaxUint32)))
		last = at
	}
}

// initialHolds draws the due times of the names a worker holds when the
// open loop starts (exponential, so the population is already in steady
// state).
func initialHolds(seed uint64, worker, n int, holdMean float64) []int64 {
	r := rng(seed, streamBurst, worker)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.ExpFloat64() * holdMean)
	}
	return out
}

// dueHeap is a min-heap of (due time, name) pairs.
type dueHeap struct{ due, name []int64 }

func (h *dueHeap) len() int { return len(h.due) }

func (h *dueHeap) push(due int64, name int) {
	h.due = append(h.due, due)
	h.name = append(h.name, int64(name))
	for i := len(h.due) - 1; i > 0; {
		p := (i - 1) / 2
		if h.due[p] <= h.due[i] {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *dueHeap) swap(i, j int) {
	h.due[i], h.due[j] = h.due[j], h.due[i]
	h.name[i], h.name[j] = h.name[j], h.name[i]
}

func (h *dueHeap) pop() int {
	n := int(h.name[0])
	last := len(h.due) - 1
	h.swap(0, last)
	h.due, h.name = h.due[:last], h.name[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < last && h.due[l] < h.due[m] {
			m = l
		}
		if l+1 < last && h.due[l+1] < h.due[m] {
			m = l + 1
		}
		if m == i {
			break
		}
		h.swap(i, m)
		i = m
	}
	return n
}

// phaseStats is the record of one rung: service times (acq, rel),
// latencies from the due time (acqDue, relDue) and lags.
type phaseStats struct {
	acq, rel        *hist
	acqDue, relDue  *hist
	lag             *hist
	offered, served int64
	failed          int64
	released        int64
	upper           int64 // grants at or above the worker's upperAt
	busy, events    int64 // loop time spent on events, and their count
	lastDone        int64 // when the rung's last arrival completed
	maxName         int   // largest name granted
	peakLive        int64 // most names held at once; merging workers sums them
}

func newPhaseStats() *phaseStats {
	return &phaseStats{acq: newHist(), rel: newHist(), acqDue: newHist(), relDue: newHist(), lag: newHist(), maxName: -1}
}

func (s *phaseStats) merge(o *phaseStats) {
	s.acq.merge(o.acq)
	s.rel.merge(o.rel)
	s.acqDue.merge(o.acqDue)
	s.relDue.merge(o.relDue)
	s.lag.merge(o.lag)
	s.offered += o.offered
	s.served += o.served
	s.failed += o.failed
	s.released += o.released
	s.upper += o.upper
	s.busy += o.busy
	s.events += o.events
	s.lastDone = max(s.lastDone, o.lastDone)
	s.maxName = max(s.maxName, o.maxName)
	s.peakLive += o.peakLive
}

// runOpen serves one worker's rung of dur nanoseconds from epoch on. The
// worker starts holding w.held, due at dues; it serves every arrival and
// every release due before dur, and returns with the names still held in
// w.held and their due times, rebased to the end of the rung.
func runOpen(w *worker, p port, o *oracle, sch arrivals, dur int64, dues []int64, epoch time.Time) (*phaseStats, []int64) {
	st := newPhaseStats()
	st.offered = int64(len(sch.gap))
	var h dueHeap
	for i, n := range w.held {
		h.push(dues[i], n)
	}
	w.held = w.held[:0]
	next := int64(math.MaxInt64) // scheduled time of arrival ai
	ai := 0
	if len(sch.gap) > 0 {
		next = int64(sch.gap[0])
	}
	// The previous iteration's event start: an event's loop time runs
	// from its start to the start of the next iteration.
	busyFrom := int64(-1)
	for o.failed() == nil {
		isRelease := h.len() > 0 && h.due[0] <= next && h.due[0] < dur
		due := next
		if isRelease {
			due = h.due[0]
		} else if ai == len(sch.gap) {
			break
		}
		t0 := time.Now()
		now := int64(t0.Sub(epoch))
		if busyFrom >= 0 {
			st.busy += now - busyFrom
			st.events++
			busyFrom = -1
		}
		if now < due {
			runtime.Gosched()
			continue
		}
		busyFrom = now
		if isRelease {
			name := h.pop()
			if !o.free(w.id, name) {
				break
			}
			err := p.Release(name)
			t1 := time.Now()
			w.spans.record(w.req, callRelease, t0, t1)
			w.req++
			if err != nil {
				o.fail("worker %d: Release(%d): %w", w.id, name, err)
				break
			}
			st.lag.add(now - due)
			st.rel.add(int64(t1.Sub(t0)))
			st.relDue.add(int64(t1.Sub(epoch)) - due)
			st.released++
			w.released++
			continue
		}
		name, err := p.Acquire()
		t1 := time.Now()
		w.spans.record(w.req, callAcquire, t0, t1)
		w.req++
		done := int64(t1.Sub(epoch))
		st.lag.add(now - due)
		st.acq.add(int64(t1.Sub(t0)))
		st.acqDue.add(done - due)
		if err != nil {
			if !full(err) {
				o.fail("worker %d: Acquire: %w", w.id, err)
				break
			}
			st.failed++
		} else {
			if !o.grant(w.id, name) {
				break
			}
			st.served++
			w.acquired++
			w.maxName = max(w.maxName, name)
			st.maxName = max(st.maxName, name)
			if name >= w.upperAt {
				st.upper++
			}
			h.push(due+int64(sch.hold[ai]), name)
		}
		w.live.Store(int64(h.len()))
		st.peakLive = max(st.peakLive, int64(h.len()))
		st.lastDone = done
		if ai++; ai < len(sch.gap) {
			next += int64(sch.gap[ai])
		} else {
			next = math.MaxInt64
		}
	}
	rest := make([]int64, h.len())
	for i, n := range h.name {
		w.held = append(w.held, int(n))
		rest[i] = max(h.due[i]-dur, 0)
	}
	return st, rest
}
