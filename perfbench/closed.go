package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shmrename"
)

// window is one worker's record of one measurement window: latency
// histograms (one sample per call; a batch call is one sample) and name
// counts.
type window struct {
	acq, rel  *hist
	acquired  int64 // names granted
	released  int64 // names returned
	attempted int64 // names asked for
	failed    int64 // names refused with a full arena
	batchNs   int64 // time inside AcquireN/ReleaseAll calls
	batchN    int64 // names moved by those calls
	// Single Acquire/Release calls: total time and count.
	oneAcqNs, oneAcqN int64
	oneRelNs, oneRelN int64
	upper             int64 // names granted at or above the worker's upperAt
	maxName           int   // largest name granted
	peakLive          int64 // most names held at once; merging workers' windows sums them
}

func newWindow() *window { return &window{acq: newHist(), rel: newHist(), maxName: -1} }

func (w *window) merge(o *window) {
	w.acq.merge(o.acq)
	w.rel.merge(o.rel)
	w.acquired += o.acquired
	w.released += o.released
	w.attempted += o.attempted
	w.failed += o.failed
	w.batchNs += o.batchNs
	w.batchN += o.batchN
	w.oneAcqNs += o.oneAcqNs
	w.oneAcqN += o.oneAcqN
	w.oneRelNs += o.oneRelNs
	w.oneRelN += o.oneRelN
	w.upper += o.upper
	w.maxName = max(w.maxName, o.maxName)
	w.peakLive += o.peakLive
}

// worker is one driver goroutine's state: the names it holds, its
// current window and the finished ones, and its lifetime name counts.
// Only its own goroutine writes it, except live, which the sampler reads.
type worker struct {
	id       int
	held     []int
	cur      *window
	wins     []*window
	acquired int64 // names granted over the arena's life
	released int64 // names returned over the arena's life
	maxName  int
	upperAt  int // names from here up count as window.upper
	scratch  []int
	spans    *spanLog
	req      int64 // requests made: the stream position and span request ID
	live     atomic.Int64
	_        [56]byte
}

func newWorkers(n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{id: i, cur: newWindow(), maxName: -1, upperAt: math.MaxInt}
	}
	return ws
}

// resetWindows discards the recorded windows (the set-up's), keeping the
// holdings and lifetime counts.
func (w *worker) resetWindows() {
	w.cur, w.wins = newWindow(), nil
}

// setLive publishes the worker's live count to the sampler and its
// window's peak.
func (w *worker) setLive() {
	n := int64(len(w.held))
	w.live.Store(n)
	w.cur.peakLive = max(w.cur.peakLive, n)
}

// rotate closes the current window.
func (w *worker) rotate() {
	w.wins = append(w.wins, w.cur)
	w.cur = newWindow()
}

// full reports whether err is the arena's (or a rung's) full signal, the
// only acquire error a run tolerates.
func full(err error) bool {
	return errors.Is(err, shmrename.ErrArenaFull) || errors.Is(err, errFull)
}

// granted books names granted to the worker; false ends the run.
func (w *worker) granted(o *oracle, names ...int) bool {
	for _, n := range names {
		if !o.grant(w.id, n) {
			return false
		}
		w.held = append(w.held, n)
		w.maxName = max(w.maxName, n)
		w.cur.maxName = max(w.cur.maxName, n)
		if n >= w.upperAt {
			w.cur.upper++
		}
	}
	w.acquired += int64(len(names))
	w.cur.acquired += int64(len(names))
	return true
}

// acquire runs one timed Acquire (k == 0) or AcquireN(k) call.
func (w *worker) acquire(p port, o *oracle, k int) bool {
	var names []int
	var err error
	t0 := time.Now()
	if k == 0 {
		var n int
		n, err = p.Acquire()
		names = append(w.scratch[:0], n)
	} else {
		names, err = p.AcquireN(k)
	}
	t1 := time.Now()
	d := int64(t1.Sub(t0))
	c := w.cur
	c.acq.add(d)
	call := callAcquire
	if k > 0 {
		call = callAcquireN
		c.batchNs += d
		c.batchN += int64(k)
	} else {
		c.oneAcqNs += d
		c.oneAcqN++
	}
	w.spans.record(w.req, call, t0, t1)
	c.attempted += int64(max(k, 1))
	if err != nil {
		if !full(err) {
			return o.fail("worker %d: acquire: %w", w.id, err)
		}
		c.failed += int64(max(k, 1))
		return true
	}
	return w.granted(o, names...)
}

// release returns the k (at least one) held names that start at index
// pick mod live, by Release when single is set and by ReleaseAll
// otherwise, timing the call.
func (w *worker) release(p port, o *oracle, pick uint32, k int, single bool) bool {
	if len(w.held) == 0 {
		return true
	}
	k = min(k, len(w.held))
	idx := int(pick % uint32(len(w.held)))
	batch := w.scratch[:0]
	for j := 0; j < k; j++ {
		i := idx % len(w.held)
		batch = append(batch, w.held[i])
		w.held[i] = w.held[len(w.held)-1]
		w.held = w.held[:len(w.held)-1]
	}
	w.scratch = batch
	for _, n := range batch {
		if !o.free(w.id, n) {
			return false
		}
	}
	var err error
	t0 := time.Now()
	if single {
		err = p.Release(batch[0])
	} else {
		err = p.ReleaseAll(batch)
	}
	t1 := time.Now()
	d := int64(t1.Sub(t0))
	c := w.cur
	c.rel.add(d)
	call := callRelease
	if !single {
		call = callReleaseAll
		c.batchNs += d
		c.batchN += int64(k)
	} else {
		c.oneRelNs += d
		c.oneRelN++
	}
	w.spans.record(w.req, call, t0, t1)
	if err != nil {
		return o.fail("worker %d: release %v: %w", w.id, batch, err)
	}
	w.released += int64(k)
	c.released += int64(k)
	return true
}

// churnStep runs the next op of churn_tight: release one held name,
// acquire a replacement.
func churnStep(picks [][]uint32) stepFn {
	return func(w *worker, p port, o *oracle) bool {
		s := picks[w.id]
		ok := w.release(p, o, s[w.req%int64(len(s))], 1, true) && w.acquire(p, o, 0)
		w.req++
		w.setLive()
		return ok
	}
}

// rampStep runs the next op of ramp_elastic.
func rampStep(ops [][]rampOp) stepFn {
	return func(w *worker, p port, o *oracle) bool {
		s := ops[w.id]
		op := s[w.req%int64(len(s))]
		var ok bool
		if op.acquire {
			ok = w.acquire(p, o, int(op.k))
		} else {
			ok = w.release(p, o, op.pick, max(int(op.k), 1), op.k == 0)
		}
		w.req++
		w.setLive()
		return ok
	}
}

// stepFn runs a worker's next op (number w.req) of a closed-loop stream;
// false ends the run (the oracle holds the reason).
type stepFn func(w *worker, p port, o *oracle) bool

// sampler reads the run's shared gauges while workers run: the driver's
// live-holder total every millisecond and the arena gauges (resident
// bytes, resident capacity) every ten.
type sampler struct {
	workers []*worker
	gauges  func() (resident int64, capNow int)

	stop     chan struct{}
	done     sync.WaitGroup
	peakLive int64
	resSum   float64
	capSum   float64
	n        int
}

func startSampler(ws []*worker, gauges func() (int64, int)) *sampler {
	s := &sampler{workers: ws, gauges: gauges, stop: make(chan struct{})}
	s.observe(true)
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for tick := 1; ; tick++ {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe(tick%10 == 0)
			}
		}
	}()
	return s
}

func (s *sampler) observe(gauges bool) {
	var live int64
	for _, w := range s.workers {
		live += w.live.Load()
	}
	s.peakLive = max(s.peakLive, live)
	if gauges && s.gauges != nil {
		r, c := s.gauges()
		s.resSum += float64(r)
		s.capSum += float64(c)
		s.n++
	}
}

// finish stops the sampler and returns its peak live total and the means
// of the gauges.
func (s *sampler) finish() (peak int64, resident, capNow float64) {
	close(s.stop)
	s.done.Wait()
	s.observe(true)
	return s.peakLive, s.resSum / float64(s.n), s.capSum / float64(s.n)
}

// runClosed drives every worker through step on its own port, each
// continuing its own stream: for ops steps each when ops > 0, otherwise
// for d, closing one window on every worker. It returns the wall time
// taken and stops early once the oracle fails.
func runClosed(ports []port, ws []*worker, o *oracle, step stepFn, ops int, d time.Duration) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ops <= 0 || n < ops; n++ {
				if n&63 == 0 && (o.failed() != nil || (ops <= 0 && time.Now().After(deadline))) {
					break
				}
				if !step(w, ports[i], o) {
					break
				}
			}
			if ops <= 0 {
				w.rotate()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// fillRetries bounds the consecutive full answers one filling worker
// retries, as ErrArenaFull's contract (backpressure) asks, before it
// gives up on the rest of its share.
const fillRetries = 1000

// fill has every worker acquire its share of n names on its own port,
// all at once, and returns the time until the last one finished and the
// number of full answers. A worker given fillRetries full answers in a
// row stops short; the caller sees the shortfall in the holdings.
func fill(ports []port, ws []*worker, o *oracle, n int) (time.Duration, int64, error) {
	var wg sync.WaitGroup
	var fulls atomic.Int64
	start := time.Now()
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			share := n / len(ws)
			if i < n%len(ws) {
				share++
			}
			for k, fails := 0, 0; k < share; k++ {
				name, err := ports[i].Acquire()
				if err != nil {
					if !full(err) {
						o.fail("worker %d: fill: %w", w.id, err)
						return
					}
					fulls.Add(1)
					if fails++; fails == fillRetries {
						break
					}
					k--
					runtime.Gosched()
					continue
				}
				fails = 0
				if !w.granted(o, name) {
					return
				}
			}
			w.setLive()
		}()
	}
	wg.Wait()
	return time.Since(start), fulls.Load(), o.failed()
}

// fillArena fills a public arena with fill, which must grant every name:
// the workloads hold fewer names than the arena's capacity.
func fillArena(a *shmrename.Arena, ws []*worker, o *oracle, n int) (time.Duration, error) {
	d, fulls, err := fill(arenaPorts(a, len(ws)), ws, o, n)
	if err == nil && fulls > 0 {
		if got := held(ws); got < n {
			err = fmt.Errorf("fill: the arena refused %d of %d names below its capacity %d (%d full answers)", n-got, n, a.Capacity(), fulls)
		} else {
			report("fill of %d names retried %d full answers", n, fulls)
		}
	}
	return d, err
}

// held counts the names the workers hold.
func held(ws []*worker) int {
	n := 0
	for _, w := range ws {
		n += len(w.held)
	}
	return n
}

// drain returns every held name through ReleaseAll (untimed).
func drain(p port, ws []*worker, o *oracle) error {
	for _, w := range ws {
		for len(w.held) > 0 {
			k := min(64, len(w.held))
			batch := w.held[len(w.held)-k:]
			for _, n := range batch {
				if !o.free(w.id, n) {
					return o.failed()
				}
			}
			if err := p.ReleaseAll(batch); err != nil {
				return err
			}
			w.held = w.held[:len(w.held)-k]
		}
		w.setLive()
	}
	return nil
}
