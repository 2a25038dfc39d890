package main

// The churn loops the generators share: one simulated FastFIFO churn
// cell (BENCH_2, BENCH_4 sim) and two native goroutine loops — tight
// acquire/yield/release churn (BENCH_3, BENCH_4 native) and timed
// hold-two churn (BENCH_5 closed loop, BENCH_6 diurnal).

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shmrename"
	"shmrename/internal/longlived"
	"shmrename/internal/metrics"
	"shmrename/internal/sched"
)

// simTally accumulates the simulated churn runs of one cell.
type simTally struct {
	runs      int
	steps     float64 // sum of the per-run steps/acquire
	maxName   int64
	maxActive int64
	acquires  int64
}

// run churns k workers through body on arena under FastFIFO and folds the
// run into the tally; mon is the monitor body reports to. It fails if the
// run broke exclusivity or left a name held.
func (s *simTally) run(arena longlived.Arena, mon *longlived.Monitor, k int, seed uint64, body sched.Body) error {
	sched.Run(sched.Config{
		N:         k,
		Seed:      seed,
		Fast:      sched.FastFIFO,
		Body:      body,
		AfterStep: arena.Clock(),
	})
	if err := mon.Err(); err != nil {
		return err
	}
	if held := arena.Held(); held != 0 {
		return fmt.Errorf("%d names held after drain", held)
	}
	s.runs++
	s.steps += mon.StepsPerAcquire()
	s.maxName = max(s.maxName, mon.MaxName())
	s.maxActive = max(s.maxActive, mon.MaxActive())
	s.acquires += mon.Acquires()
	return nil
}

// stepsPerAcquire is the mean of the runs' steps/acquire.
func (s *simTally) stepsPerAcquire() float64 { return s.steps / float64(s.runs) }

// bench3Cell measures one tightly provisioned arena configuration: g
// goroutines on a capacity-g arena, each cycling acquire / yield-while-
// holding / release, best of runs timed runs against fresh arenas.
func bench3Cell(cfg shmrename.ArenaConfig, g, runs, cycles int) (bench3Point, error) {
	p := bench3Point{
		Backend:    string(cfg.Backend),
		Shards:     cfg.Shards,
		Goroutines: g,
		Capacity:   cfg.Capacity,
		Cycles:     cycles,
	}
	if p.Backend == "" {
		p.Backend = string(shmrename.ArenaLevel)
	}
	var best time.Duration
	for run := 0; run < runs; run++ {
		arena, err := shmrename.NewArena(cfg)
		if err != nil {
			return p, err
		}
		p.NameBound = arena.NameBound()
		var maxName, fullRetries atomic.Int64
		var firstErr atomic.Pointer[error]
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				top := int64(-1)
				for c := 0; c < cycles; c++ {
					var n int
					for {
						var err error
						n, err = arena.Acquire()
						if err == nil {
							break
						}
						// Transient full under racing churn: back off and
						// retry; it is counted, not fatal.
						fullRetries.Add(1)
						runtime.Gosched()
					}
					if int64(n) > top {
						top = int64(n)
					}
					runtime.Gosched() // hold the name while others run
					if err := arena.Release(n); err != nil {
						firstErr.CompareAndSwap(nil, &err)
						return
					}
				}
				for {
					cur := maxName.Load()
					if top <= cur || maxName.CompareAndSwap(cur, top) {
						break
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if e := firstErr.Load(); e != nil {
			return p, *e
		}
		if held := arena.Held(); held != 0 {
			return p, fmt.Errorf("%d names held after drain", held)
		}
		if run == 0 || elapsed < best {
			best = elapsed
			// Rate fields describe the recorded (best) run only.
			p.FullRetries = fullRetries.Load()
			if st := arena.Stats(); st.Acquires > 0 {
				p.StepsPerAcquire = float64(st.AcquireSteps) / float64(st.Acquires)
			}
		}
		if m := maxName.Load(); m > p.MaxName {
			p.MaxName = m
		}
	}
	p.Acquires = int64(g) * int64(cycles)
	p.NsPerAcquire = float64(best.Nanoseconds()) / float64(p.Acquires)
	p.KAcqPerSec = float64(p.Acquires) / best.Seconds() / 1e3
	return p, nil
}

// holdTwoChurn runs g goroutines that each churn hold-two cycles
// (acquire, acquire, release both — peak demand 2g), timing every acquire,
// retry-until-success included, into private histograms merged after the
// drain. Acquire errors are retried: a near-full arena legitimately
// races, and the wait for another worker's release is part of the tail.
func holdTwoChurn(arena *shmrename.Arena, g, cycles int) (metrics.Histogram, error) {
	parts := make([]metrics.Histogram, g)
	errs := make([]error, g)
	timedAcquire := func(h *metrics.Histogram) int {
		start := time.Now()
		for {
			n, err := arena.Acquire()
			if err == nil {
				h.Record(time.Since(start).Nanoseconds())
				return n
			}
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				a := timedAcquire(&parts[w])
				runtime.Gosched()
				b := timedAcquire(&parts[w])
				runtime.Gosched()
				if err := arena.Release(a); err != nil {
					errs[w] = err
					return
				}
				runtime.Gosched()
				if err := arena.Release(b); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var h metrics.Histogram
	for w := range parts {
		if errs[w] != nil {
			return h, errs[w]
		}
		h.Merge(&parts[w])
	}
	return h, nil
}
