package leasecache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

// TestPressureWindowBoundary pins the exact extent of the pressure window:
// a starved acquire makes the next Block releases — no more, no fewer —
// bypass the cache, and a repeat starvation resets the window to Block
// instead of stacking on top of the remainder.
func TestPressureWindowBoundary(t *testing.T) {
	c, inner := newSharded(4, 1, Config{Block: 2, Slots: 1, MaxCached: 8})
	p := proc(0)
	var names []int
	for i := 0; i < 4; i++ {
		n := c.Acquire(p)
		if n < 0 {
			t.Fatalf("acquire %d failed with a free arena", i)
		}
		names = append(names, n)
	}
	if c.Cached() != 0 {
		t.Fatalf("%d names parked after draining every lease", c.Cached())
	}
	if n := c.Acquire(p); n >= 0 {
		t.Fatalf("acquire got %d from a fully granted arena", n)
	}
	if got := c.pressure.Load(); got != 2 {
		t.Fatalf("starved acquire opened a window of %d, want Block=2", got)
	}

	// Releases 1..Block bypass the cache and feed the inner pool directly.
	for i := 0; i < 2; i++ {
		c.Release(p, names[i])
		if c.Cached() != 0 {
			t.Fatalf("release %d under pressure parked its name", i)
		}
		if inner.IsHeld(names[i]) {
			t.Fatalf("release %d under pressure left the inner claim set", i)
		}
	}
	// Release Block+1 finds the window closed and parks normally.
	c.Release(p, names[2])
	if c.Cached() != 1 {
		t.Fatalf("first post-window release cached %d names, want 1", c.Cached())
	}
	if !inner.IsHeld(names[2]) {
		t.Fatal("parked name lost its inner claim")
	}

	// Starve again from the current state: the window must reset to Block
	// (pressure is a Store, not an Add), not accumulate across starvations.
	for {
		if n := c.Acquire(p); n < 0 {
			break
		}
	}
	if got := c.pressure.Load(); got != 2 {
		t.Fatalf("repeat starvation left a window of %d, want Block=2", got)
	}
}

// TestMaxCachedEvictionOrder pins which names a full slot evicts: the spill
// takes one whole block of the oldest parked names (stack bottom — the ones
// most likely to share a leased word, so the inner ReleaseN coalesces
// them), never the newly released name, which parks in the freed space.
func TestMaxCachedEvictionOrder(t *testing.T) {
	c, inner := newSharded(64, 1, Config{Block: 4, Slots: 1, MaxCached: 4})
	p := proc(0)
	var names []int
	for i := 0; i < 8; i++ {
		n := c.Acquire(p)
		if n < 0 {
			t.Fatalf("acquire %d failed", i)
		}
		names = append(names, n)
	}
	if c.Cached() != 0 {
		t.Fatalf("%d names parked before the release phase", c.Cached())
	}
	for i := 0; i < 4; i++ {
		c.Release(p, names[i])
	}
	if c.Cached() != 4 {
		t.Fatalf("slot parked %d of MaxCached=4", c.Cached())
	}
	// The 5th release evicts exactly the oldest block and parks itself.
	c.Release(p, names[4])
	if c.Cached() != 1 {
		t.Fatalf("%d names parked after the spill, want 1", c.Cached())
	}
	if !c.parked(names[4]) {
		t.Fatal("spill evicted the newly released name instead of the oldest block")
	}
	for i := 0; i < 4; i++ {
		if c.parked(names[i]) {
			t.Fatalf("oldest name %d survived the spill", names[i])
		}
		if inner.IsHeld(names[i]) {
			t.Fatalf("spilled name %d never reached the inner pool", names[i])
		}
	}
	if _, spills, _ := c.Stats(); spills != 1 {
		t.Fatalf("spill count %d, want exactly 1", spills)
	}
}

// TestSiblingStealRaceStorm races the cross-slot steal path against
// owner-side pops, releases, spills, and pressure bypasses: four native
// goroutines hashing to two slots churn a deliberately tight arena
// (capacity = one block, so slots hoard everything and every other acquire
// must steal or starve). Grant uniqueness is checked with an ownership CAS
// per name; the race detector watches the lock handoffs.
func TestSiblingStealRaceStorm(t *testing.T) {
	const capacity, workers, iters = 8, 4, 2000
	c, inner := newSharded(capacity, 1, Config{Block: 8, Slots: 2, MaxCached: 8})
	own := make([]atomic.Int32, c.NameBound())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := proc(w)
			for i := 0; i < iters; i++ {
				n := c.Acquire(p)
				if n < 0 {
					continue // starved behind a sibling's hoard
				}
				if !own[n].CompareAndSwap(0, 1) {
					t.Errorf("worker %d: name %d granted while held", w, n)
					return
				}
				c.Touch(p, n)
				if !own[n].CompareAndSwap(1, 0) {
					t.Errorf("worker %d: name %d ownership corrupted", w, n)
					return
				}
				c.Release(p, n)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Conservation after the storm: flushing the slots must return every
	// claim to the inner pool.
	c.Flush(proc(workers))
	if h, parked := inner.Held(), c.Cached(); h != 0 || parked != 0 {
		t.Fatalf("after flush: inner holds %d, cache parks %d, want 0/0", h, parked)
	}
}

// TestStepLimitInRefillReleasesSlot: a proc whose step budget runs out
// inside a refill unwinds with a StepLimit panic from the inner arena.
// The slot lock must not leak with it — Flush would block forever — and
// the cache's books must still balance after the unwind.
func TestStepLimitInRefillReleasesSlot(t *testing.T) {
	c, inner := newSharded(256, 1, Config{Block: 64, Slots: 1})
	p := proc(0)
	for range 64 { // one block, all granted: the slot's stack is empty
		if c.Acquire(p) < 0 {
			t.Fatal("acquire failed")
		}
	}

	limited := shm.NewProc(1, prng.NewStream(7, 1), nil, 1)
	limited.Step(shm.Op{}) // budget spent: the refill's first step panics
	func() {
		defer func() {
			if _, ok := recover().(shm.StepLimit); !ok {
				t.Fatal("acquire did not unwind with a StepLimit panic")
			}
		}()
		c.Acquire(limited)
	}()

	flushed := make(chan int, 1)
	go func() { flushed <- c.Flush(proc(2)) }()
	select {
	case <-flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("Flush blocked: the unwound refill leaked the slot lock")
	}
	if got := c.Cached(); got != 0 {
		t.Fatalf("%d names still cached after Flush", got)
	}
	if got := inner.Held(); got != 64 {
		t.Fatalf("inner arena holds %d names, want the 64 granted ones", got)
	}
	if got := c.Held(); got != 64 {
		t.Fatalf("cache reports %d held, want 64", got)
	}
	// The slot is usable again: the next acquire refills through it.
	refills, _, _ := c.Stats()
	if c.Acquire(proc(3)) < 0 {
		t.Fatal("acquire after the unwind failed")
	}
	if now, _, _ := c.Stats(); now != refills+1 {
		t.Fatalf("refills %d -> %d: the acquire did not go through the slot", refills, now)
	}
}
