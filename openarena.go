//go:build unix

package shmrename

import (
	"errors"
	"fmt"
	"time"

	"shmrename/internal/persist"
	"shmrename/internal/shm"
)

// OpenArena creates or attaches to a cross-process renaming arena backed
// by the mmap'd file at path: the claim bitmap and lease-stamp array live
// in shared pages, so unrelated OS processes coordinate through the same
// word-granular TAS/CAS protocol the in-process arena uses, and a process
// that dies holding names loses them back to the pool.
//
// The file is created (with cfg.Capacity names) on first open and
// validated — magic, layout version, geometry — on every subsequent one;
// attaching with a different Capacity is an error. Leases are always on:
// each handle claims under its process ID, cfg.Lease tunes the TTL,
// background reaper, and liveness oracle (defaulting to 1s, no reaper,
// and kill(pid, 0) respectively), and every OpenArena runs one recovery
// sweep before returning, so names orphaned by crashed holders are
// re-grantable immediately. Call Heartbeat more often than once per TTL
// while holding names, and Close to detach.
//
// The persisted namespace is a flat bitmap: cfg.Backend, Shards, and
// Elastic must be zero — cross-process churn is dominated by page
// coherence, not probe schedules, and a flat map with a fixed on-disk
// geometry keeps every attach trivially checkable.
func OpenArena(path string, cfg ArenaConfig) (*Arena, error) {
	if cfg.Capacity < 1 {
		return nil, errors.New("shmrename: ArenaConfig.Capacity must be >= 1")
	}
	if cfg.Backend != "" {
		return nil, fmt.Errorf("shmrename: OpenArena namespaces are flat; Backend %q is not configurable", cfg.Backend)
	}
	if cfg.Shards != 0 {
		return nil, fmt.Errorf("shmrename: OpenArena namespaces are flat; Shards is not configurable")
	}
	if cfg.Elastic != nil {
		// The mmap'd file's geometry (header-checked on every attach) is
		// the cross-process contract; levels appearing and vanishing would
		// need every attached process to agree on remap points. Elasticity
		// stays an in-process feature.
		return nil, fmt.Errorf("shmrename: OpenArena namespaces have a fixed on-disk geometry; Elastic is not configurable")
	}
	if cfg.LeaseBlocks != 0 {
		// Parked names in a per-process cache would look identical to held
		// names from every other process of the namespace, defeating the
		// cross-process occupancy story; the in-process arena is the
		// lease-cache surface.
		return nil, fmt.Errorf("shmrename: OpenArena namespaces are flat; LeaseBlocks is not configurable")
	}
	if cfg.Probe != ProbeAuto && cfg.Probe != ProbeWord {
		return nil, fmt.Errorf("shmrename: OpenArena namespaces always scan word-granular; Probe %q is not configurable", cfg.Probe)
	}
	lease := cfg.Lease
	if lease == nil {
		lease = &LeaseConfig{TTL: time.Second}
	}
	if err := lease.validate(); err != nil {
		return nil, err
	}
	if cfg.Integrity != nil {
		if err := cfg.Integrity.validate(); err != nil {
			return nil, err
		}
	}
	pa, err := persist.Open(path, persist.Options{
		Names:     cfg.Capacity,
		TTL:       lease.ttlEpochs(),
		Alive:     lease.Alive,
		MaxPasses: acquirePasses,
	})
	if err != nil {
		return nil, err
	}
	a := &Arena{impl: pa, seed: cfg.Seed}
	a.initLease(pa, pa.Holder(), shm.WallEpochs{}, pa.Sweeper(), lease.Reaper)
	if cfg.Integrity != nil {
		// Quarantine marks live in the file's stamp page, so a quarantine
		// survives process generations: any later handle's scrubber
		// recognizes the damaged words and keeps them out of circulation.
		a.initIntegrity(cfg.Integrity, lease.ttlEpochs(), shm.WallEpochs{})
	}
	a.atClose(pa.Close)
	return a, nil
}
