package shmrename

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"

	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

// constructionPin is what NewArena builds for one config: the public shape
// of the arena and an FNV-1a hash of a seeded acquire/release trace run on
// its implementation. Backend labels write the lease cache's
// GOMAXPROCS-sized slot count as {P}.
type constructionPin struct {
	backend   string
	capacity  int
	nameBound int
	capNow    int
	resident  int64
	trace     uint64
}

// constructionTraceOps is the length of the pinned trace.
const constructionTraceOps = 2000

// constructionTrace drives a seeded mix of single and batch acquires and
// releases on a.impl through one fixed process context (not the arena's
// proc pool, whose contents a GC may drop) and hashes every granted name,
// every released name, the step counter after every operation, and the
// final held count, capacity, and footprint.
func constructionTrace(a *Arena, seed uint64) uint64 {
	p := shm.NewProc(0, prng.NewStream(seed, 0), nil, 0)
	r := prng.NewStream(seed, 1)
	h := fnv.New64a()
	var buf [8]byte
	mix := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var held []int
	take := func() int {
		i := r.Intn(len(held))
		n := held[i]
		held[i] = held[len(held)-1]
		held = held[:len(held)-1]
		return n
	}
	for op := 0; op < constructionTraceOps; op++ {
		// Acquires outweigh releases slightly, so the trace drifts toward
		// full occupancy: elastic ladders grow and late acquires can fail.
		switch k := r.Intn(8); {
		case len(held) == 0 || k < 4:
			n := a.impl.Acquire(p)
			mix(int64(n))
			if n >= 0 {
				held = append(held, n)
			}
		case k == 4:
			names := a.impl.AcquireN(p, 1+r.Intn(8), nil)
			mix(int64(len(names)))
			for _, n := range names {
				mix(int64(n))
			}
			held = append(held, names...)
		case k < 7:
			n := take()
			a.impl.Release(p, n)
			mix(int64(n))
		default:
			batch := make([]int, 0, 8)
			for i := 1 + r.Intn(8); i > 0 && len(held) > 0; i-- {
				batch = append(batch, take())
			}
			a.impl.ReleaseN(p, batch)
			for _, n := range batch {
				mix(int64(n))
			}
		}
		mix(p.Steps())
	}
	st := a.Stats()
	mix(int64(a.impl.Held()))
	mix(int64(st.CapacityNow))
	mix(st.ResidentBytes)
	return h.Sum64()
}

// TestArenaConstructionPins pins what NewArena builds for every public
// backend shape — the label, capacities, name bound, resident footprint,
// and a seeded grant/step trace — so a change to how NewArena constructs
// its backends must reproduce each arena bit for bit.
func TestArenaConstructionPins(t *testing.T) {
	const capacity, seed = 512, 7
	lease := func() *LeaseConfig { return &LeaseConfig{TTL: time.Hour} }
	rows := []struct {
		name string
		cfg  ArenaConfig
		want constructionPin
	}{
		{"default", ArenaConfig{Capacity: capacity}, constructionPin{backend: "level-array(levels=4,probes=4,scan=word)", capacity: 512, nameBound: 960, capNow: 512, resident: 992, trace: 0x3900bf1fcab1adf3}},
		{"level-word", ArenaConfig{Capacity: capacity, Backend: ArenaLevel, Probe: ProbeWord}, constructionPin{backend: "level-array(levels=4,probes=4,scan=word)", capacity: 512, nameBound: 960, capNow: 512, resident: 992, trace: 0x3900bf1fcab1adf3}},
		{"level-bit", ArenaConfig{Capacity: capacity, Backend: ArenaLevel, Probe: ProbeBit}, constructionPin{backend: "level-array(levels=4,probes=4,scan=bit)", capacity: 512, nameBound: 960, capNow: 512, resident: 992, trace: 0x7423e2301685e548}},
		{"elastic", ArenaConfig{Capacity: capacity, Backend: ArenaElastic}, constructionPin{backend: "elastic-level(levels=1/4,probes=4,scan=word)", capacity: 512, nameBound: 960, capNow: 64, resident: 72, trace: 0x163d1cd9afefe007}},
		{"level-elastic-max", ArenaConfig{Capacity: capacity, Backend: ArenaLevel,
			Elastic: &ElasticConfig{MaxCapacity: 2 * capacity}}, constructionPin{backend: "elastic-level(levels=1/5,probes=4,scan=word)", capacity: 1024, nameBound: 1984, capNow: 64, resident: 72, trace: 0x163d1cd9afefe007}},
		{"tau-word", ArenaConfig{Capacity: capacity, Backend: ArenaTau, Probe: ProbeWord}, constructionPin{backend: "tau-longlived(devices=57,w=18,tau=9,scan=word)", capacity: 512, nameBound: 513, capNow: 512, resident: 0, trace: 0xcc7db71e4a9464ef}},
		{"tau-bit", ArenaConfig{Capacity: capacity, Backend: ArenaTau, Probe: ProbeBit}, constructionPin{backend: "tau-longlived(devices=57,w=18,tau=9,scan=bit)", capacity: 512, nameBound: 513, capNow: 512, resident: 0, trace: 0x11876e79da92b92c}},
		{"sharded-word", ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded, Shards: 4,
			Probe: ProbeWord}, constructionPin{backend: "sharded-level(shards=4,steal=2,scan=word)", capacity: 512, nameBound: 768, capNow: 512, resident: 832, trace: 0x40fc029e840ada69}},
		{"sharded-bit", ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded, Shards: 4,
			Probe: ProbeBit}, constructionPin{backend: "sharded-level(shards=4,steal=2,scan=bit)", capacity: 512, nameBound: 768, capNow: 512, resident: 832, trace: 0x3c0c264403f02a2a}},
		{"sharded-word-elastic", ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded, Shards: 4,
			Probe: ProbeWord, Elastic: &ElasticConfig{}}, constructionPin{backend: "sharded-level(shards=4,steal=2,scan=word)", capacity: 512, nameBound: 768, capNow: 256, resident: 288, trace: 0x95d8d83d41ef9c1c}},
		{"sharded-bit-elastic", ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded, Shards: 4,
			Probe: ProbeBit, Elastic: &ElasticConfig{}}, constructionPin{backend: "sharded-level(shards=4,steal=2,scan=bit)", capacity: 512, nameBound: 768, capNow: 256, resident: 288, trace: 0xc8492ef27f50c1ba}},
		{"level-leaseblocks", ArenaConfig{Capacity: capacity, LeaseBlocks: 64}, constructionPin{backend: "level-array(levels=4,probes=4,scan=word)+leasecache(block=64,slots={P})", capacity: 512, nameBound: 960, capNow: 512, resident: 992, trace: 0x9465fc00545c761a}},
		{"sharded-leaseblocks", ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded, Shards: 4,
			LeaseBlocks: 64}, constructionPin{backend: "sharded-level(shards=4,steal=2,scan=word)+leasecache(block=64,slots={P})", capacity: 512, nameBound: 768, capNow: 512, resident: 832, trace: 0xf82043b698430ede}},
		{"level-lease", ArenaConfig{Capacity: capacity, Lease: lease()}, constructionPin{backend: "level-array(levels=4,probes=4,scan=word)", capacity: 512, nameBound: 960, capNow: 512, resident: 8672, trace: 0xa052f7d697cb9d6e}},
		{"tau-lease", ArenaConfig{Capacity: capacity, Backend: ArenaTau, Lease: lease()}, constructionPin{backend: "tau-longlived(devices=57,w=18,tau=9,scan=word)", capacity: 512, nameBound: 513, capNow: 512, resident: 0, trace: 0x4347d959029c717c}},
		{"sharded-lease", ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded, Shards: 4,
			Lease: lease()}, constructionPin{backend: "sharded-level(shards=4,steal=2,scan=word)", capacity: 512, nameBound: 768, capNow: 512, resident: 6976, trace: 0xf98c3f20128f798f}},
		{"burst-cached", ArenaConfig{Capacity: capacity, LeaseBlocks: 64, Lease: lease(),
			Integrity: &IntegrityConfig{Quarantine: true}}, constructionPin{backend: "level-array(levels=4,probes=4,scan=word)+leasecache(block=64,slots={P})", capacity: 512, nameBound: 960, capNow: 512, resident: 8672, trace: 0x867ff4a8a08b5e56}},
		{"lease-cached", ArenaConfig{Capacity: capacity, Backend: "lease-cached"}, constructionPin{backend: "sharded-level(shards=4,steal=2,scan=word)+leasecache(block=64,slots={P})", capacity: 512, nameBound: 768, capNow: 512, resident: 832, trace: 0xf82043b698430ede}},
	}
	slots := fmt.Sprintf("slots=%d)", runtime.GOMAXPROCS(0))
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			a, err := NewArena(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			st := a.Stats()
			got := constructionPin{
				backend:   strings.Replace(a.Backend(), slots, "slots={P})", 1),
				capacity:  a.Capacity(),
				nameBound: a.NameBound(),
				capNow:    st.CapacityNow,
				resident:  st.ResidentBytes,
			}
			got.trace = constructionTrace(a, seed)
			if got != row.want {
				t.Errorf("construction drifted:\n got %#v\nwant %#v", got, row.want)
			}
		})
	}
}

// TestArenaDefaultShards pins the sharded backend's zero Shards value: one
// stripe per GOMAXPROCS, clamped to the capacity.
func TestArenaDefaultShards(t *testing.T) {
	for _, capacity := range []int{1, 512} {
		a, err := NewArena(ArenaConfig{Capacity: capacity, Backend: ArenaBackendSharded})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("shards=%d,", min(runtime.GOMAXPROCS(0), capacity))
		if !strings.Contains(a.Backend(), want) {
			t.Errorf("capacity %d: label %q lacks %q", capacity, a.Backend(), want)
		}
		a.Close()
	}
}
