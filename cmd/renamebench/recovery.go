package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"shmrename"
	"shmrename/internal/registry"
)

// runRecoverySmoke is the native crash-recovery smoke behind
// -recovery-smoke: real goroutines abandon held names on every in-process
// leasable backend and the lease sweep must return them to the pool, then
// an mmap-backed arena is detached with names held and a second handle
// must recover them. It is the fast end-to-end complement of the
// deterministic E18 fault-injection experiment — seconds of wall time,
// suitable for CI.
func runRecoverySmoke(seed uint64) error {
	for _, b := range registry.All() {
		// External arenas are the mmap half below; dense-proc backends are
		// not constructible through NewArena; caching layers park names a
		// sweep of held leases cannot account for exactly.
		if c := b.Caps; !c.Leasable || c.External || c.DenseProcs || c.Cached {
			continue
		}
		if err := smokeBackend(shmrename.ArenaBackend(b.Name), seed); err != nil {
			return err
		}
	}
	return smokeMmap(seed)
}

// smokeBackend abandons names from real goroutines and sweeps them back.
func smokeBackend(backend shmrename.ArenaBackend, seed uint64) error {
	const capacity, workers, perWorker = 256, 8, 8
	a, err := shmrename.NewArena(shmrename.ArenaConfig{
		Capacity: capacity,
		Backend:  backend,
		Seed:     seed,
		Lease:    &shmrename.LeaseConfig{TTL: time.Millisecond},
	})
	if err != nil {
		return err
	}
	defer a.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Acquire and walk away holding everything: the goroutine
			// "crashes" by abandonment, the only crash a real runtime can
			// produce without killing the process.
			for i := 0; i < perWorker; i++ {
				if _, err := a.Acquire(); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	abandoned := a.Held()
	time.Sleep(10 * time.Millisecond) // let every lease lapse
	reclaimed := a.SweepStale()
	if reclaimed != abandoned || a.Held() != 0 {
		return fmt.Errorf("recovery-smoke %s: reclaimed %d of %d abandoned names, %d still held",
			backend, reclaimed, abandoned, a.Held())
	}
	// The pool must be whole again.
	names, err := a.AcquireN(capacity)
	if err != nil {
		return fmt.Errorf("recovery-smoke %s: pool not whole after sweep: %w", backend, err)
	}
	if err := a.ReleaseAll(names); err != nil {
		return fmt.Errorf("recovery-smoke %s: %w", backend, err)
	}
	fmt.Printf("recovery-smoke %-14s abandoned=%d reclaimed=%d reacquired=%d ok\n",
		backend, abandoned, reclaimed, len(names))
	return nil
}

// smokeMmap detaches an mmap-backed arena with names held; the next handle
// must see them, and — with a hostile liveness oracle standing in for a
// dead process — sweep them back.
func smokeMmap(seed uint64) error {
	dir, err := os.MkdirTemp("", "renamebench-recovery")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ns")
	dead := func(uint64) bool { return false }
	cfg := shmrename.ArenaConfig{
		Capacity: 256,
		Seed:     seed,
		Lease:    &shmrename.LeaseConfig{TTL: time.Millisecond, Alive: dead},
	}
	a, err := shmrename.OpenArena(path, cfg)
	if err != nil {
		return fmt.Errorf("recovery-smoke mmap: %w", err)
	}
	names, err := a.AcquireN(32)
	if err != nil {
		return err
	}
	if err := a.Close(); err != nil {
		return err
	}

	time.Sleep(10 * time.Millisecond)
	b, err := shmrename.OpenArena(path, cfg)
	if err != nil {
		return fmt.Errorf("recovery-smoke mmap reattach: %w", err)
	}
	defer b.Close()
	b.SweepStale() // the open-time sweep may already have recovered them
	if held := b.Held(); held != 0 {
		return fmt.Errorf("recovery-smoke mmap: %d abandoned names still held after sweep", held)
	}
	st := b.Stats()
	if st.Reclaimed != int64(len(names)) {
		return fmt.Errorf("recovery-smoke mmap: reclaimed %d of %d", st.Reclaimed, len(names))
	}
	got, err := b.AcquireN(256)
	if err != nil {
		return fmt.Errorf("recovery-smoke mmap: pool not whole: %w", err)
	}
	fmt.Printf("recovery-smoke %-14s abandoned=%d reclaimed=%d reacquired=%d ok\n",
		"mmap", len(names), st.Reclaimed, len(got))
	return nil
}
