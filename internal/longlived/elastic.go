package longlived

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"

	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// ElasticArena is the LevelArray ladder (arXiv:1405.5461): levels of
// geometrically growing word-packed TAS bitmaps, level 0 the smallest and
// the final backstop level sized to the full capacity. Acquire probes each
// level a few times at random and falls through; since at most capacity-1
// other clients hold slots, the backstop always has a free slot, and a
// deterministic scan is the termination guarantee. Release clears the
// slot's bit (shm.OpClear), making the name immediately reusable. Names
// are numbered level 0 first, so with k concurrent holders the random
// probes w.h.p. place everyone within the first O(log k) levels, whose
// sizes sum to O(k) — the long-lived analogue of adaptive tight renaming.
//
// Residency is a policy on top of that ladder. An elastic ladder
// (NewElastic) sizes its resident prefix to the *current* contention
// instead of the provisioned maximum: levels are appended under load and
// drained/retired when occupancy falls, without ever stopping concurrent
// acquires — the resident bitmap+stamp bytes and the probe range both
// track live holders, the adaptive-space property argued by "Space Bounds
// for Adaptive Renaming" (arXiv:1603.04067). A pinned ladder (NewLevel)
// keeps every level resident for its whole life; see "Pinned ladder".
//
// # Publication protocol
//
// The full ladder shape (level sizes, name bases, NameBound) is fixed at
// construction; only which prefix is resident changes. The resident prefix
// is published through one atomic word packing (generation, activeLevels):
// acquirers read it, probe the active levels, and revalidate. Each level
// slot holds an atomic pointer to a level object carrying its own state
// flag (active → draining → retired), so a claim always revalidates
// against the exact object it claimed in — a slot retired and regrown
// between claim and revalidation cannot be confused with its predecessor.
//
//   - Grow: allocate the next geometric level (bitmap, hints, stamps) off
//     to the side, store its pointer, then publish the new (gen+1, act+1)
//     word with one atomic store. Acquirers that read the old word merely
//     probe one level fewer for one pass.
//   - Shrink: mark the top level draining (claims revalidate and bounce;
//     the word-saturation hints are force-set so word probes skip it at
//     zero step cost), then wait for a clean occupancy scan. Under Go's
//     sequentially-consistent atomics any claim CAS the scan did not
//     observe must itself observe the draining flag afterwards and
//     self-release, so a clean scan proves no name can ever again be
//     granted from the level; only then is it retired and unpublished.
//     A drain never reclaims a held name: live holders keep the drain
//     pending (and a grow cancels it) until they release.
//
// # Resize triggers
//
// An exact live-holder counter drives both directions without wall
// clocks: a successful acquire grows proactively once occupancy reaches
// GrowAt x CapacityNow (and a failed full pass grows unconditionally — the
// ErrArenaFull signal); releases arm a shrink after ShrinkAfter
// consecutive observations at or below ShrinkAt x (capacity without the
// top level), the hysteresis that keeps a diurnal trough from thrashing
// the ladder.
//
// # Pinned ladder
//
// NewLevel builds the ladder fully resident and pinned: the resize
// triggers, the occupancy counter, the floor hint and claim revalidation
// are skipped on every path, Grow and Shrink report false, CapacityNow
// and PeakCapacity equal Capacity, and the backstop scans only the final
// (capacity-sized) level.
// That last rule is the one loop difference between the two policies; it
// keeps the pinned grant sequence — and so every level-array golden
// fingerprint — identical to the fixed ladder's. Lease stamps form one
// array laid out by global name, so a pinned ladder exposes a single lease
// domain, and that domain can Seize (there is no drain accounting for the
// integrity scrubber to bypass).
type ElasticArena struct {
	cfg       ElasticConfig
	sizes     []int // full ladder shape, fixed at construction
	base      []int // base[i] = first global name of level i
	bound     int   // full-ladder name bound (constant)
	cap       int   // maximum capacity (the guarantee, reached by growth)
	minLevels int   // resident floor: the prefix covering MinCapacity
	// pinned marks a ladder built by NewLevel: every level resident, no
	// resizing (see "Pinned ladder").
	pinned bool
	// stamps is a pinned ladder's lease-stamp array, indexed by global
	// name across all levels; nil when elastic or when the lease layer is
	// off.
	stamps *shm.Stamps

	levels []atomic.Pointer[elLevel]
	// ladder packs (generation << 16 | activeLevels): the epoch/seqlock
	// word acquirers read before probing. Structural transitions are
	// serialized by resizeBusy, so writers store; readers only load.
	ladder atomic.Uint64
	// occ is the live-holder counter driving the resize triggers: +1 per
	// granted name, -1 per released or reclaimed one.
	occ atomic.Int64
	// floor hints the lowest level likely to have free slots: raised to
	// the level of the last successful claim, dropped by releases below
	// it. Probes start there instead of wading through saturated low
	// levels; the deterministic backstop ignores it.
	floor atomic.Int32
	// drainIdx is the index of the level currently draining, -1 if none.
	drainIdx atomic.Int32
	// resizeBusy serializes grow/start-drain/finish-drain transitions;
	// acquires and releases never wait on it.
	resizeBusy atomic.Bool
	// Cached trigger thresholds, retuned on every ladder change.
	capNow     atomic.Int64
	peakCap    atomic.Int64
	growTrip   atomic.Int64
	shrinkTrip atomic.Int64
	// shrinkScore counts consecutive shrink-eligible release observations;
	// drainTick throttles finish-drain attempts from unrelated releases.
	shrinkScore atomic.Int64
	drainTick   atomic.Int64
	resident    atomic.Int64
	// Transition counters (diagnostics).
	grows, shrinks, cancels atomic.Int64
}

// levelProbes is the number of random probes per active level before the
// deterministic backstop.
const levelProbes = 4

// Level object states. The zero value is active so a freshly installed
// level serves claims immediately.
const (
	elActive uint32 = iota
	elDraining
	elRetired
)

// elLevel is one resident level: its bitmap space, its lease-stamp array
// (on an elastic ladder stamps follow levels — a retired level's stamps
// are dropped with it; a pinned ladder's levels share one array), and the
// state flag claims revalidate against.
type elLevel struct {
	space  *shm.NameSpace
	stamps *shm.Stamps
	idx    int
	base   int
	size   int
	bytes  int64
	state  atomic.Uint32
}

// ElasticConfig parameterizes an ElasticArena. The resize knobs mirror
// registry.ElasticParams; a pinned ladder (NewLevel) ignores them.
type ElasticConfig struct {
	// MinCapacity floors the resident ladder: the arena never drains below
	// the level prefix covering it. Default Base, clamped to the capacity.
	MinCapacity int
	// GrowAt is the occupancy fraction of CapacityNow at which a
	// successful acquire proactively appends the next level, in (0, 1).
	// Default 0.75.
	GrowAt float64
	// ShrinkAt is the occupancy hysteresis for draining the top level, as
	// a fraction of the capacity without that level, in [0, GrowAt).
	// Default 0.25.
	ShrinkAt float64
	// ShrinkAfter is the number of consecutive shrink-eligible release
	// observations before a drain starts. Default 128.
	ShrinkAfter int
	// Base is the size of the smallest level. Default 64.
	Base int
	// MaxPasses bounds full Acquire passes before reporting the arena
	// full; ladder-extending retries do not consume a pass. 0 means
	// unlimited (simulated runs rely on the scheduler's step budget
	// instead).
	MaxPasses int
	// WordScan enables the word-granular claim engine: probes target
	// bitmap words instead of single bits (one snapshot-scan-CAS claims the
	// first free name of 64 in one step), the backstop scans words instead
	// of names, saturation hints redirect probes away from words observed
	// full, and batch acquires claim up to 64 names per step. Off by
	// default: the per-bit probe path is the deterministic-mode contract
	// whose golden fingerprints (and the paper's per-TAS cost model) stay
	// bit-identical across refactors.
	WordScan bool
	// Padded lays level bitmaps out one word per cache line for native
	// runs on real cores; leave false for simulated runs.
	Padded bool
	// Lease enables the crash-recovery stamp layer (see LeaseOpts): every
	// claim publishes a holder/epoch lease stamp and every release retires
	// it, at one extra step per name each way, so a recovery sweep can
	// reclaim names whose holder crashed. On an elastic ladder each level
	// owns its stamp array, created and retired with the level, and
	// LeaseDomains re-enumerates the resident levels on every call, which
	// is exactly how recovery.Sweeper consumes it. Nil costs nothing.
	Lease *LeaseOpts
	// Label prefixes the operation-space labels. Default "elastic"
	// ("arena" for NewLevel). Labels are per ladder slot, not per
	// incarnation, so a regrown level reuses its predecessor's interned
	// operation space.
	Label string
}

// LevelArena is the pinned ladder NewLevel builds: an ElasticArena whose
// every level is resident for its whole life.
type LevelArena = ElasticArena

// LevelConfig parameterizes NewLevel. The resize knobs are ignored.
type LevelConfig = ElasticConfig

func (c *ElasticConfig) fill() {
	if c.Base <= 0 {
		c.Base = 64
	}
	if c.GrowAt == 0 {
		c.GrowAt = 0.75
	}
	if c.ShrinkAt == 0 {
		c.ShrinkAt = 0.25
	}
	if c.ShrinkAfter <= 0 {
		c.ShrinkAfter = 128
	}
	if c.Label == "" {
		c.Label = "elastic"
	}
}

var _ Arena = (*ElasticArena)(nil)
var _ Recoverable = (*ElasticArena)(nil)

// NewElastic builds an elastic level arena whose ladder can grow to serve
// capacity concurrent holders and drains back toward cfg.MinCapacity when
// contention falls. The full ladder shape equals NewLevel's for the same
// capacity, so NameBound (and the sharded frontend's equal-stride
// invariant) are identical to the pinned arena's.
func NewElastic(capacity int, cfg ElasticConfig) *ElasticArena {
	return newLadder(capacity, cfg, false)
}

// NewLevel builds a pinned ladder guaranteeing capacity concurrent
// holders: every level resident from the start, never resized.
func NewLevel(capacity int, cfg LevelConfig) *LevelArena {
	if cfg.Label == "" {
		cfg.Label = "arena"
	}
	return newLadder(capacity, cfg, true)
}

// NewLadder builds the ladder of the level-backed frontends: pinned
// (NewLevel) when e is nil, elastic (NewElastic) with e's resize knobs —
// which replace cfg's — otherwise.
func NewLadder(capacity int, cfg ElasticConfig, e *registry.ElasticParams) *ElasticArena {
	if e == nil {
		return NewLevel(capacity, cfg)
	}
	cfg.MinCapacity, cfg.GrowAt, cfg.ShrinkAt, cfg.ShrinkAfter = e.MinCapacity, e.GrowAt, e.ShrinkAt, e.ShrinkAfter
	return NewElastic(capacity, cfg)
}

func newLadder(capacity int, cfg ElasticConfig, pinned bool) *ElasticArena {
	if capacity < 1 {
		panic("longlived: capacity must be >= 1")
	}
	cfg.fill()
	if cfg.GrowAt <= 0 || cfg.GrowAt >= 1 {
		panic(fmt.Sprintf("longlived: ElasticConfig.GrowAt must lie in (0, 1), got %v", cfg.GrowAt))
	}
	if cfg.ShrinkAt < 0 || cfg.ShrinkAt >= cfg.GrowAt {
		panic(fmt.Sprintf("longlived: ElasticConfig.ShrinkAt must lie in [0, GrowAt=%v), got %v", cfg.GrowAt, cfg.ShrinkAt))
	}
	if cfg.MinCapacity < 0 {
		panic(fmt.Sprintf("longlived: ElasticConfig.MinCapacity must be >= 0, got %d", cfg.MinCapacity))
	}
	a := &ElasticArena{cfg: cfg, cap: capacity, pinned: pinned}
	// Geometric ladder: Base, 2·Base, 4·Base, ... strictly below capacity,
	// then the capacity-sized backstop.
	for size := cfg.Base; size < capacity; size *= 2 {
		a.sizes = append(a.sizes, size)
		a.base = append(a.base, a.bound)
		a.bound += size
	}
	a.sizes = append(a.sizes, capacity)
	a.base = append(a.base, a.bound)
	a.bound += capacity
	a.levels = make([]atomic.Pointer[elLevel], len(a.sizes))
	a.minLevels = len(a.sizes)
	if !pinned {
		minCap := cfg.MinCapacity
		if minCap == 0 {
			minCap = cfg.Base
		}
		if minCap > capacity {
			minCap = capacity
		}
		a.minLevels = 1
		for sum := a.sizes[0]; a.minLevels < len(a.sizes) && sum < minCap; a.minLevels++ {
			sum += a.sizes[a.minLevels]
		}
	} else if cfg.Lease.enabled() {
		a.stamps = shm.NewStamps(cfg.Label+":lease", a.bound)
	}
	for li := 0; li < a.minLevels; li++ {
		a.installLevel(li)
	}
	a.drainIdx.Store(-1)
	a.ladder.Store(packLadder(0, a.minLevels))
	if pinned {
		a.capNow.Store(int64(capacity))
		a.peakCap.Store(int64(capacity))
	} else {
		a.retune()
	}
	return a
}

// packLadder packs the publication word: generation above, active level
// count in the low 16 bits (the ladder has at most ~35 levels).
func packLadder(gen uint64, act int) uint64 { return gen<<16 | uint64(act) }

// activeLevels reads the published probe range.
func (a *ElasticArena) activeLevels() int { return int(a.ladder.Load() & 0xffff) }

// Generation reads the published resize generation (diagnostics, tests).
func (a *ElasticArena) Generation() uint64 { return a.ladder.Load() >> 16 }

// bumpGen republishes the ladder word with the generation advanced and the
// level count unchanged (drain start/cancel). Caller holds resizeBusy.
func (a *ElasticArena) bumpGen() {
	st := a.ladder.Load()
	a.ladder.Store(packLadder((st>>16)+1, int(st&0xffff)))
}

// installLevel allocates and publishes the level object for slot li.
// Caller holds resizeBusy (or is the constructor).
func (a *ElasticArena) installLevel(li int) {
	mk := shm.NewNameSpace
	if a.cfg.Padded {
		mk = shm.NewNameSpacePadded
	}
	label := fmt.Sprintf("%s:L%d", a.cfg.Label, li)
	lvl := &elLevel{
		space: mk(label, a.sizes[li]),
		idx:   li,
		base:  a.base[li],
		size:  a.sizes[li],
	}
	lvl.bytes = int64(lvl.space.FootprintBytes())
	switch {
	case a.stamps != nil:
		lvl.stamps = a.stamps
		lvl.space.AttachStamps(a.stamps, lvl.base)
		lvl.bytes += int64(lvl.size) * 8
	case a.cfg.Lease.enabled():
		lvl.stamps = shm.NewStamps(label+":lease", lvl.size)
		lvl.space.AttachStamps(lvl.stamps, 0)
		lvl.bytes += int64(lvl.size) * 8
	}
	a.levels[li].Store(lvl)
	a.resident.Add(lvl.bytes)
}

// retune recomputes the cached capacity and trigger thresholds after a
// ladder transition. Caller holds resizeBusy (or is the constructor).
func (a *ElasticArena) retune() {
	act := a.activeLevels()
	di := int(a.drainIdx.Load())
	cap := 0
	topActive := -1
	for li := 0; li < act; li++ {
		if li == di {
			continue
		}
		cap += a.sizes[li]
		topActive = li
	}
	a.capNow.Store(int64(cap))
	if int64(cap) > a.peakCap.Load() {
		a.peakCap.Store(int64(cap))
	}
	if act >= len(a.levels) && di < 0 {
		a.growTrip.Store(math.MaxInt64)
	} else {
		a.growTrip.Store(int64(a.cfg.GrowAt * float64(cap)))
	}
	if di >= 0 || act <= a.minLevels || topActive < 0 {
		a.shrinkTrip.Store(-1)
	} else {
		a.shrinkTrip.Store(int64(a.cfg.ShrinkAt * float64(cap-a.sizes[topActive])))
	}
}

// Label implements Arena.
func (a *ElasticArena) Label() string {
	scan := "bit"
	if a.cfg.WordScan {
		scan = "word"
	}
	if a.pinned {
		return fmt.Sprintf("level-array(levels=%d,probes=%d,scan=%s)", len(a.levels), levelProbes, scan)
	}
	return fmt.Sprintf("elastic-level(levels=%d/%d,probes=%d,scan=%s)",
		a.activeLevels(), len(a.levels), levelProbes, scan)
}

// Capacity implements Arena: the guarantee, reached through growth.
func (a *ElasticArena) Capacity() int { return a.cap }

// NameBound implements Arena: the full-ladder bound, constant across
// resizes.
func (a *ElasticArena) NameBound() int { return a.bound }

// Levels returns (resident, maximum) level counts (diagnostics).
func (a *ElasticArena) Levels() (active, max int) { return a.activeLevels(), len(a.levels) }

// CapacityNow implements registry.Elastic: the summed sizes of the active
// non-draining levels — which exceeds Capacity once the ladder is fully
// grown, since the backstop level alone seats Capacity — or Capacity on a
// pinned ladder.
func (a *ElasticArena) CapacityNow() int { return int(a.capNow.Load()) }

// PeakCapacity implements registry.Elastic.
func (a *ElasticArena) PeakCapacity() int { return int(a.peakCap.Load()) }

// ResidentBytes implements registry.Footprint: bitmap words, saturation
// hints, and lease stamps of the resident levels.
func (a *ElasticArena) ResidentBytes() int64 { return a.resident.Load() }

// Resizes returns the cumulative (grows, shrinks, drain-cancels) counters
// (diagnostics and tests).
func (a *ElasticArena) Resizes() (grows, shrinks, cancels int64) {
	return a.grows.Load(), a.shrinks.Load(), a.cancels.Load()
}

// Leased reports whether the crash-recovery lease layer is on.
func (a *ElasticArena) Leased() bool { return a.cfg.Lease.enabled() }

// leaseStamp returns the proc's current lease stamp, or 0 with leases off.
// Computed once per operation: one epoch read covers the whole pass.
func (a *ElasticArena) leaseStamp(p *shm.Proc) uint64 {
	if !a.cfg.Lease.enabled() {
		return 0
	}
	return a.cfg.Lease.stamp(p)
}

// Grow implements registry.Elastic: append the next geometric level, or —
// when a drain is pending — cancel it (demand has returned; the draining
// level reopens before any allocation happens). It reports whether the
// ladder changed (never on a pinned ladder, which is fully grown). Acquire
// calls it on every failed full pass and proactively at the GrowAt
// occupancy trip; tests and benchmarks force it.
func (a *ElasticArena) Grow() bool {
	if !a.resizeBusy.CompareAndSwap(false, true) {
		return false
	}
	defer a.resizeBusy.Store(false)
	if di := a.drainIdx.Load(); di >= 0 {
		lvl := a.levels[di].Load()
		lvl.state.Store(elActive)
		// Reopen the force-saturated probe hints; stale clears are
		// advisory-safe (a probe re-marks a genuinely full word).
		lvl.space.DesaturateAll()
		a.drainIdx.Store(-1)
		a.cancels.Add(1)
		a.bumpGen()
		a.retune()
		return true
	}
	st := a.ladder.Load()
	act := int(st & 0xffff)
	if act >= len(a.levels) {
		return false
	}
	a.installLevel(act)
	a.ladder.Store(packLadder((st>>16)+1, act+1))
	a.grows.Add(1)
	a.retune()
	return true
}

// Shrink implements registry.Elastic: initiate a drain of the top level if
// none is pending, then attempt to complete whichever drain is pending. It
// reports whether a level was actually retired — false while live holders
// (or parked cache blocks) keep the draining level occupied, and always on
// a pinned ladder, whose resident floor is the whole ladder.
func (a *ElasticArena) Shrink() bool {
	a.startDrain(true)
	return a.finishDrain()
}

// startDrain marks the top level draining. When forced is false the
// occupancy hysteresis is re-checked under the resize guard (the trigger
// path); Shrink forces it regardless of occupancy.
func (a *ElasticArena) startDrain(forced bool) {
	if !a.resizeBusy.CompareAndSwap(false, true) {
		return
	}
	defer a.resizeBusy.Store(false)
	a.shrinkScore.Store(0)
	if a.drainIdx.Load() >= 0 {
		return
	}
	act := a.activeLevels()
	if act <= a.minLevels {
		return
	}
	if !forced {
		trip := a.shrinkTrip.Load()
		if trip < 0 || a.occ.Load() > trip {
			return
		}
	}
	top := a.levels[act-1].Load()
	top.state.Store(elDraining)
	// Force the saturation summary so word probes skip the level at zero
	// step cost; stragglers already past the state check revalidate and
	// self-release (see the publication-protocol comment above).
	top.space.SaturateAll()
	a.drainIdx.Store(int32(act - 1))
	a.bumpGen()
	a.retune()
}

// finishDrain retires the draining level once a full occupancy scan comes
// back clean, republishing the shorter ladder. It reports whether a level
// was retired.
func (a *ElasticArena) finishDrain() bool {
	if !a.resizeBusy.CompareAndSwap(false, true) {
		return false
	}
	defer a.resizeBusy.Store(false)
	di := a.drainIdx.Load()
	if di < 0 {
		return false
	}
	lvl := a.levels[di].Load()
	// The clean-scan proof: state was stored draining before this scan, so
	// a claim CAS the scan misses must itself load the draining state and
	// self-release — after one clean pass no name can ever be granted from
	// the level again, and nobody holds one (held bits would show here).
	if lvl.space.CountClaimed() != 0 {
		return false
	}
	lvl.state.Store(elRetired)
	st := a.ladder.Load()
	act := int(st & 0xffff)
	a.ladder.Store(packLadder((st>>16)+1, act-1))
	a.levels[di].Store(nil)
	a.resident.Add(-lvl.bytes)
	a.drainIdx.Store(-1)
	a.shrinks.Add(1)
	a.retune()
	return true
}

// Draining implements registry.Drainer: caching layers must not park a
// released name of a draining level (the parked claim would pin the drain).
// Never true on a pinned ladder, which answers without a lookup.
func (a *ElasticArena) Draining(name int) bool {
	if a.pinned {
		return false
	}
	li, _ := a.locate(name)
	lvl := a.levels[li].Load()
	return lvl != nil && lvl.state.Load() != elActive
}

// noteAcquired records k granted names in lvl and runs the grow trigger.
// An acquire resets the shrink hysteresis only when it lands above the
// shrink trip: that occupancy is contention evidence against retiring the
// top level, while steady low-k churn — acquires included — is exactly the
// regime a shrink is for and must not keep vetoing it.
func (a *ElasticArena) noteAcquired(lvl *elLevel, k int) {
	occ := a.occ.Add(int64(k))
	if occ > a.shrinkTrip.Load() && a.shrinkScore.Load() != 0 {
		a.shrinkScore.Store(0)
	}
	if f := a.floor.Load(); f != int32(lvl.idx) {
		a.floor.Store(int32(lvl.idx))
	}
	if occ >= a.growTrip.Load() {
		a.Grow()
	}
}

// noteReleased records k released (or reclaimed) names in lvl and runs the
// shrink trigger: releases into a draining level (and a throttled sample of
// the others) attempt to complete the pending drain, and sustained low
// occupancy arms a new one.
func (a *ElasticArena) noteReleased(lvl *elLevel, k int) {
	occ := a.occ.Add(int64(-k))
	if f := a.floor.Load(); int32(lvl.idx) < f {
		a.floor.Store(int32(lvl.idx))
	}
	if di := a.drainIdx.Load(); di >= 0 {
		if int32(lvl.idx) == di || a.drainTick.Add(1)&15 == 0 {
			a.finishDrain()
		}
		return
	}
	if trip := a.shrinkTrip.Load(); trip >= 0 && occ <= trip {
		if a.shrinkScore.Add(1) >= int64(a.cfg.ShrinkAfter) {
			a.startDrain(false)
			a.finishDrain()
		}
	}
}

// unclaim hands a just-claimed slot straight back — the self-release of a
// claim that lost the revalidation race against a drain.
func (a *ElasticArena) unclaim(p *shm.Proc, lvl *elLevel, i int) {
	if lvl.stamps != nil {
		lvl.space.FreeStamped(p, i, a.cfg.Lease.holder(p))
		return
	}
	lvl.space.Free(p, i)
}

// granted revalidates a claim against the level state: a claim in a level
// that began draining self-releases and reports false, so the drain's
// clean-scan proof holds. On success it returns the global name. A
// pinned ladder never drains, so its claims are granted as they land.
func (a *ElasticArena) granted(p *shm.Proc, lvl *elLevel, i int) (int, bool) {
	if !a.pinned {
		if lvl.state.Load() != elActive {
			a.unclaim(p, lvl, i)
			return -1, false
		}
		a.noteAcquired(lvl, 1)
	}
	return lvl.base + i, true
}

// claim is TryClaim or its stamped variant.
func claim(p *shm.Proc, s *shm.NameSpace, i int, stamp uint64) bool {
	if stamp == 0 {
		return s.TryClaim(p, i)
	}
	return s.TryClaimStamped(p, i, stamp)
}

// claimWord is ClaimFirstFree or its stamped variant.
func claimWord(p *shm.Proc, s *shm.NameSpace, w int, stamp uint64) int {
	if stamp == 0 {
		return s.ClaimFirstFree(p, w)
	}
	return s.ClaimFirstFreeStamped(p, w, stamp)
}

// claimUpTo is ClaimUpTo or its stamped variant.
func claimUpTo(p *shm.Proc, s *shm.NameSpace, w, k int, stamp uint64) uint64 {
	if stamp == 0 {
		return s.ClaimUpTo(p, w, k)
	}
	return s.ClaimUpToStamped(p, w, k, stamp)
}

// Acquire implements Arena: read the ladder word, probe the active levels
// from the floor hint, then a deterministic backstop scan (the termination
// guarantee — when the ladder is fully grown its final level alone seats
// the full capacity). An elastic ladder's backstop walks every active
// level bottom-up (tighter names than a top-only scan, and correct at any
// ladder height), and a failed full pass extends the ladder (or cancels a
// pending drain) and retries without consuming a pass; the ladder can only
// change a bounded number of times, so MaxPasses still bounds the call.
// With WordScan the probes and the backstop run word-granular: random
// probes pick a bitmap word per attempt — skipping words hinted
// saturated, at no step cost — and ClaimFirstFree turns the whole word
// into one snapshot-scan-CAS step. Hints only redirect probes; the
// backstop reads every word itself, so a stale hint can never starve the
// termination guarantee.
func (a *ElasticArena) Acquire(p *shm.Proc) int {
	stamp := a.leaseStamp(p)
	r := p.Rand()
	regrown := 0
	for pass := 0; a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses; {
		act := a.activeLevels()
		for li := a.probeFrom(act); li < act; li++ {
			lvl := a.levels[li].Load()
			if lvl == nil || lvl.state.Load() != elActive {
				continue
			}
			if a.cfg.WordScan {
				words := lvl.space.Words()
				for t := 0; t < levelProbes; t++ {
					w := r.Intn(words)
					if lvl.space.WordSaturated(w) {
						continue
					}
					if i := claimWord(p, lvl.space, w, stamp); i >= 0 {
						if name, ok := a.granted(p, lvl, i); ok {
							return name
						}
					}
				}
			} else {
				for t := 0; t < levelProbes; t++ {
					i := r.Intn(lvl.size)
					if claim(p, lvl.space, i, stamp) {
						if name, ok := a.granted(p, lvl, i); ok {
							return name
						}
					}
				}
			}
		}
		// Backstop scan: bit mode reads first and TASes only slots that
		// looked free. A scan that loses every race means other clients
		// made progress; the next pass retries from the top of the ladder.
		for li := a.backstopFrom(act); li < act; li++ {
			lvl := a.levels[li].Load()
			if lvl == nil || lvl.state.Load() != elActive {
				continue
			}
			if a.cfg.WordScan {
				for w := 0; w < lvl.space.Words(); w++ {
					if i := claimWord(p, lvl.space, w, stamp); i >= 0 {
						if name, ok := a.granted(p, lvl, i); ok {
							return name
						}
					}
				}
			} else {
				for i := 0; i < lvl.size; i++ {
					if lvl.space.Claimed(p, i) {
						continue
					}
					if claim(p, lvl.space, i, stamp) {
						if name, ok := a.granted(p, lvl, i); ok {
							return name
						}
					}
				}
			}
		}
		if a.regrow(&regrown) {
			continue
		}
		pass++
	}
	return -1
}

// probeFrom is the first level a pass probes: the floor hint on an
// elastic ladder, level 0 on a pinned one.
func (a *ElasticArena) probeFrom(act int) int {
	if a.pinned {
		return 0
	}
	if f := int(a.floor.Load()); f > 0 && f < act {
		return f
	}
	return 0
}

// backstopFrom is the first level the deterministic backstop scans: every
// active level on an elastic ladder, only the capacity-sized final level
// on a pinned one.
func (a *ElasticArena) backstopFrom(act int) int {
	if a.pinned {
		return act - 1
	}
	return 0
}

// regrow decides whether a failed full pass retries without consuming a
// pass: only on an elastic ladder that is structurally full and whose
// ladder then changed, at most len(levels)+2 times per call.
func (a *ElasticArena) regrow(regrown *int) bool {
	if a.pinned || *regrown > len(a.levels)+1 || !a.structFull() || !a.extend() {
		return false
	}
	*regrown++
	return true
}

// extend is the failed-pass Grow. When another proc holds the resize
// guard, Grow alone would report "no change" while that transition is
// still being published, and the caller would burn its passes against a
// ladder about to grow — a false arena-full at a fraction of capacity.
// Instead extend waits for the guard to drop (yielding, spending no
// steps) and reports whether the ladder word moved, retrying the Grow
// itself when the other transition left the ladder as it was. Under the
// simulated scheduler the guard is never observed held (transitions take
// no steps), so simulated fingerprints are unaffected.
func (a *ElasticArena) extend() bool {
	for {
		st := a.ladder.Load()
		if a.Grow() {
			return true
		}
		if !a.resizeBusy.Load() {
			return false
		}
		for a.resizeBusy.Load() {
			runtime.Gosched()
		}
		if a.ladder.Load() != st {
			return true
		}
	}
}

// structFull reports whether a failed pass is structural-fullness evidence
// that warrants extending the ladder (or cancelling a pin by a draining
// level, which structFull skips exactly as the pass did). A pass can also
// fail against a moving target — concurrent churn claiming slots ahead of
// the backstop cursor and freeing them behind it — and that must retry as
// an ordinary pass, not inflate residency: growth stays proportional to
// occupancy, never to scan luck. It reads the bitmaps rather than the occ
// counter: occ can drift under crash recovery (a holder that dies between
// its claim CAS and the occupancy bump is still swept, and the sweep's
// release is counted), and the bitmaps are the ground truth the failed
// pass just scanned anyway.
func (a *ElasticArena) structFull() bool {
	act := a.activeLevels()
	claimed, capacity := 0, 0
	for li := 0; li < act; li++ {
		lvl := a.levels[li].Load()
		if lvl == nil || lvl.state.Load() != elActive {
			continue
		}
		claimed += lvl.space.CountClaimed()
		capacity += lvl.size
	}
	return claimed >= capacity
}

// grantMask revalidates a whole claimed word mask: a drain racing the
// claim bounces the entire mask back (FreeMask semantics), otherwise the
// names are granted and appended.
func (a *ElasticArena) grantMask(p *shm.Proc, lvl *elLevel, w int, won uint64, out []int, k int) ([]int, int) {
	if won == 0 {
		return out, k
	}
	if a.pinned {
		return appendMask(out, lvl.base+w<<6, won, k)
	}
	if lvl.state.Load() != elActive {
		if lvl.stamps != nil {
			lvl.space.FreeMaskStamped(p, w, won, a.cfg.Lease.holder(p))
		} else {
			lvl.space.FreeMask(p, w, won)
		}
		return out, k
	}
	pre := len(out)
	out, k = appendMask(out, lvl.base+w<<6, won, k)
	a.noteAcquired(lvl, len(out)-pre)
	return out, k
}

// AcquireN implements Arena. With WordScan the batch walks the active
// ladder top-down — so batches stay concentrated in the low levels —
// claiming up to 64 names per step with ClaimUpTo (each claimed mask
// revalidated against the level state as one unit), and the word backstop
// completes the remainder. Without WordScan it degenerates to k
// independent Acquires (the per-bit probe path has no cheaper primitive).
func (a *ElasticArena) AcquireN(p *shm.Proc, k int, out []int) []int {
	if !a.cfg.WordScan {
		for ; k > 0; k-- {
			n := a.Acquire(p)
			if n < 0 {
				break
			}
			out = append(out, n)
		}
		return out
	}
	stamp := a.leaseStamp(p)
	r := p.Rand()
	regrown := 0
	for pass := 0; k > 0 && (a.cfg.MaxPasses == 0 || pass < a.cfg.MaxPasses); {
		act := a.activeLevels()
		for li := a.probeFrom(act); k > 0 && li < act; li++ {
			lvl := a.levels[li].Load()
			if lvl == nil || lvl.state.Load() != elActive {
				continue
			}
			words := lvl.space.Words()
			for t := 0; k > 0 && t < levelProbes; t++ {
				w := r.Intn(words)
				if lvl.space.WordSaturated(w) {
					continue
				}
				out, k = a.grantMask(p, lvl, w, claimUpTo(p, lvl.space, w, k, stamp), out, k)
			}
		}
		for li := a.backstopFrom(act); k > 0 && li < act; li++ {
			lvl := a.levels[li].Load()
			if lvl == nil || lvl.state.Load() != elActive {
				continue
			}
			for w := 0; k > 0 && w < lvl.space.Words(); w++ {
				out, k = a.grantMask(p, lvl, w, claimUpTo(p, lvl.space, w, k, stamp), out, k)
			}
		}
		if k > 0 && !a.regrow(&regrown) {
			pass++
		}
	}
	return out
}

// appendMask appends the names encoded by a won word mask (global name =
// wordBase + bit position) and returns the updated slice and remainder.
func appendMask(out []int, wordBase int, won uint64, k int) ([]int, int) {
	for won != 0 {
		b := bits.TrailingZeros64(won)
		won &= won - 1
		out = append(out, wordBase+b)
		k--
	}
	return out, k
}

// locate returns the ladder slot holding the global name and its local
// index; the shape is fixed, so retired slots still locate (to a nil
// level).
func (a *ElasticArena) locate(name int) (int, int) {
	if name < 0 || name >= a.bound {
		panic(fmt.Sprintf("longlived: name %d outside arena bound %d", name, a.bound))
	}
	li := sort.Search(len(a.base), func(i int) bool { return a.base[i] > name }) - 1
	return li, name - a.base[li]
}

// Release implements Arena. A name in a retired slot is by definition not
// held (retirement requires a clean occupancy scan), so the release is a
// no-op there, mirroring NameSpace.Free's release-of-free semantics.
func (a *ElasticArena) Release(p *shm.Proc, name int) {
	li, i := a.locate(name)
	lvl := a.levels[li].Load()
	if lvl == nil {
		return
	}
	if lvl.stamps != nil {
		// The stamp is retired first (CAS mine→0) and only then the claim
		// bit cleared; a stamp the recovery sweep already reclaimed means
		// the name is no longer ours, and the bit is left alone.
		if !lvl.space.FreeStamped(p, i, a.cfg.Lease.holder(p)) {
			return // reclaimed out from under the holder; occ already adjusted
		}
	} else {
		lvl.space.Free(p, i)
	}
	if !a.pinned {
		a.noteReleased(lvl, 1)
	}
}

// ReleaseN implements Arena: names sharing a bitmap word of a level are
// coalesced into one FreeMask step, so a batch of b word-adjacent names
// costs ⌈b/64⌉ clearing steps instead of b. The input slice is not
// modified; grouping needs sorted names, so an unsorted input is copied
// (already-sorted batches — e.g. the per-shard groups the sharded
// frontend hands down — are grouped in place, no allocation).
func (a *ElasticArena) ReleaseN(p *shm.Proc, names []int) {
	switch len(names) {
	case 0:
		return
	case 1:
		a.Release(p, names[0])
		return
	}
	sorted := names
	if !sort.IntsAreSorted(sorted) {
		sorted = make([]int, len(names))
		copy(sorted, names)
		sort.Ints(sorted)
	}
	for i := 0; i < len(sorted); {
		li, loc := a.locate(sorted[i])
		w := loc >> 6
		mask := uint64(1) << (uint(loc) & 63)
		j := i + 1
		for ; j < len(sorted); j++ {
			lj, locj := a.locate(sorted[j])
			if lj != li || locj>>6 != w {
				break
			}
			mask |= 1 << (uint(locj) & 63)
		}
		if lvl := a.levels[li].Load(); lvl != nil {
			freed := mask
			if lvl.stamps != nil {
				freed = lvl.space.FreeMaskStamped(p, w, mask, a.cfg.Lease.holder(p))
			} else {
				lvl.space.FreeMask(p, w, mask)
			}
			if n := bits.OnesCount64(freed); n > 0 {
				a.noteReleased(lvl, n)
			}
		}
		i = j
	}
}

// LeaseDomains implements Recoverable. A pinned ladder has one domain
// spanning the whole ladder, since its stamp array is laid out by global
// name; it can Seize, as no resize accounting rides on the claim bits. An
// elastic ladder has one domain per resident level (stamps follow
// levels), re-enumerated on every call so the recovery sweeper and
// heartbeats always see the current ladder; reclaims flow through the
// same release accounting as client releases, keeping the resize
// triggers honest.
func (a *ElasticArena) LeaseDomains() []LeaseDomain {
	if !a.cfg.Lease.enabled() {
		return nil
	}
	if a.pinned {
		return []LeaseDomain{{
			Base:   0,
			Stamps: a.stamps,
			IsHeld: a.IsHeld,
			Reclaim: func(p *shm.Proc, i int) {
				li, loc := a.locate(i)
				a.levels[li].Load().space.Free(p, loc)
			},
			Seize: func(p *shm.Proc, i int) bool {
				li, loc := a.locate(i)
				return a.levels[li].Load().space.TryClaim(p, loc)
			},
		}}
	}
	var out []LeaseDomain
	for li := range a.levels {
		lvl := a.levels[li].Load()
		if lvl == nil {
			continue
		}
		l := lvl
		out = append(out, LeaseDomain{
			Base:   l.base,
			Stamps: l.stamps,
			IsHeld: l.space.Probe,
			Reclaim: func(p *shm.Proc, i int) {
				l.space.Free(p, i)
				a.noteReleased(l, 1)
			},
		})
	}
	return out
}

// Touch implements Arena: one read of the name's TAS register.
func (a *ElasticArena) Touch(p *shm.Proc, name int) {
	li, i := a.locate(name)
	if lvl := a.levels[li].Load(); lvl != nil {
		lvl.space.Claimed(p, i)
	}
}

// IsHeld implements Arena.
func (a *ElasticArena) IsHeld(name int) bool {
	li, i := a.locate(name)
	lvl := a.levels[li].Load()
	return lvl != nil && lvl.space.Probe(i)
}

// Held implements Arena: an exact popcount over the resident levels (the
// occ counter is the trigger input, not the diagnostic source of truth).
func (a *ElasticArena) Held() int {
	h := 0
	for li := range a.levels {
		if lvl := a.levels[li].Load(); lvl != nil {
			h += lvl.space.CountClaimed()
		}
	}
	return h
}

// Probeables implements Arena: the resident levels at call time.
func (a *ElasticArena) Probeables() map[string]shm.Probeable {
	m := make(map[string]shm.Probeable)
	for li := range a.levels {
		if lvl := a.levels[li].Load(); lvl != nil {
			m[lvl.space.Label()] = lvl.space
		}
	}
	return m
}

// Clock implements Arena: bitmap levels need no hardware clock.
func (a *ElasticArena) Clock() func() { return nil }
