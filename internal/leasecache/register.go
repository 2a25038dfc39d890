package leasecache

import (
	"shmrename/internal/registry"
	_ "shmrename/internal/sharded" // registers the inner frontend
)

func init() {
	registry.Register(registry.Backend{
		Name: "lease-cached",
		// Not Deterministic: slot assignment hashes proc IDs into a
		// GOMAXPROCS-sized slot array and TryLock outcomes depend on real
		// interleaving, and a cached arena may report full while parked
		// names exist in other workers' slots — so the simulated churn
		// invariants (every worker completes every cycle) do not apply.
		Caps: registry.Caps{
			Releasable:  true,
			Batch:       true,
			Leasable:    true,
			Sharded:     true,
			WordScan:    true,
			Cached:      true,
			SelfHealing: true,
		},
		New: func(cfg registry.Config) registry.Arena {
			// Per-worker word-block caches over the registered sharded
			// frontend in its default shape: the deterministic stripe
			// count, the word-scan engine, fixed shards.
			sharded, _ := registry.Lookup("sharded")
			inner := cfg
			inner.Shards, inner.Scan, inner.Elastic = 0, "word", nil
			return New(sharded.New(inner), Config{Block: min(64, cfg.Capacity)})
		},
	})
}
