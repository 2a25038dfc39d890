package sharded

import (
	"shmrename/internal/longlived"
	"shmrename/internal/registry"
)

// registryShards is the default stripe count of the registry-constructed
// arena (Config.Shards overrides it). It is a fixed constant — not
// GOMAXPROCS — so the registered backend is deterministic: the same seed
// replays the same schedule on any machine, which the conformance
// fingerprint law and the simulated E15 churn rows rely on. It matches the
// E18 fault-injection shape.
const registryShards = 4

// The registered constructor is also the production shape behind
// shmrename.NewArena's sharded backend, which resolves its GOMAXPROCS
// default into Config.Shards first. It forwards Config.Elastic to the
// sub-ladders without declaring Caps.Elastic: elastic stripes are a public
// arena option, not a shape the registry's resize laws and adaptivity rows
// sweep.
func init() {
	registry.Register(registry.Backend{
		Name: "sharded",
		Caps: registry.Caps{
			Releasable:    true,
			Batch:         true,
			Leasable:      true,
			Sharded:       true,
			WordScan:      true,
			Deterministic: true,
			SelfHealing:   true,
		},
		New: func(cfg registry.Config) registry.Arena {
			shards := cfg.Shards
			if shards == 0 {
				shards = registryShards
			}
			if shards > cfg.Capacity {
				shards = cfg.Capacity
			}
			return New(cfg.Capacity, Config{
				Shards:    shards,
				MaxPasses: cfg.MaxPasses,
				WordScan:  cfg.Scan != "bit",
				Padded:    true,
				Lease:     longlived.Lease(cfg),
				Elastic:   cfg.Elastic,
				Label:     cfg.Label,
			})
		},
	})
}
