// Package taureg implements the τ-register of §II.B and its counting
// device of §II.C: a block of 2·log n test-and-set bits whose hardware
// restricts the number of confirmed 1-bits to a threshold τ, plus τ plain
// TAS registers holding names.
//
// The paper notes the register "is unlikely to be actually built" but
// "could be constructed based on this description"; this package is that
// construction in software. The counting device state lives in two uint64
// words (in_reg, out_reg) and one clock cycle executes exactly the
// pseudocode of §II.C: phase 1 lets processes test-and-set bits of in_reg,
// phase 2 unsets supernumerary new bits using the xor/shift/popcnt
// selection and copies the result to out_reg.
//
// Observable contract relied on by the renaming algorithm (and verified by
// the tests in this package):
//
//   - out_reg never holds more than τ set bits;
//   - bits confirmed in out_reg are a subset of bits requested in in_reg;
//   - confirmed bits stay confirmed until released (out_reg is monotone in
//     one-shot use; ReleaseBit — the long-lived extension — is the only
//     operation that unconfirms, and per-bit epoch tags keep a released or
//     trimmed bit's earlier requester from adopting a later winner's
//     confirmation);
//   - every request observed by a cycle is decided (confirmed or cleared)
//     in that cycle, so a requester resolves after at most one full cycle.
//
// Clocking: in hardware all bits share a free-running clock. In simulated
// executions the scheduler ticks every device after each granted operation
// (costing processes nothing, matching the model's "constant delay"). In
// native executions a device is self-clocked: a resolver drives a cycle
// itself under the device mutex, which serializes the hardware's parallel
// phase-2 loop without changing the contract.
package taureg

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"shmrename/internal/shm"
)

// MaxWidth is the largest supported counting-device width: both device
// registers are single machine words, exactly the "numbers of log n bits"
// the paper assumes the hardware handles in O(1).
const MaxWidth = 64

// Outcome is the resolution state of a TAS-bit request.
type Outcome uint8

// Request outcomes.
const (
	// Pending: the device has not run a cycle over the request yet.
	Pending Outcome = iota
	// Won: the bit is confirmed in out_reg; the process owns it.
	Won
	// Lost: the bit was already set, or the device unset it (threshold).
	Lost
)

// String returns the lower-case outcome name.
func (o Outcome) String() string {
	switch o {
	case Pending:
		return "pending"
	case Won:
		return "won"
	case Lost:
		return "lost"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Device is one counting device: width TAS bits of which at most tau may
// be confirmed at any time.
type Device struct {
	label       string
	id          shm.SpaceID
	width       int
	tau         int
	selfClocked bool

	mu  sync.Mutex // serializes clock cycles, requests, and releases
	in  atomic.Uint64
	out atomic.Uint64

	// epochs[b] counts how many times a *set* request bit b has been
	// cleared (trimmed by a cycle or released). A requester snapshots the
	// epoch when its bit is set; any later epoch means its request was
	// cleared, even if another process has since re-requested and won the
	// same bit. One-shot executions never need this — a trim leaves the
	// device full forever, so a stale winner cannot appear — but once
	// ReleaseBit makes out_reg non-monotone the tag is what keeps one
	// physical bit from resolving Won for two different requesters.
	epochs [MaxWidth]atomic.Uint32

	cycles atomic.Int64
}

// NewDevice returns a counting device with the given number of TAS bits
// (1..64) and threshold 0 <= tau <= width. If selfClocked is true a
// resolver drives the clock itself (native mode); otherwise an external
// clock must call Cycle, e.g. the simulator's AfterStep hook.
func NewDevice(label string, width, tau int, selfClocked bool) *Device {
	if width < 1 || width > MaxWidth {
		panic(fmt.Sprintf("taureg: width %d outside [1,%d]", width, MaxWidth))
	}
	if tau < 0 || tau > width {
		panic(fmt.Sprintf("taureg: tau %d outside [0,%d]", tau, width))
	}
	return &Device{label: label, id: shm.InternSpace(label), width: width, tau: tau, selfClocked: selfClocked}
}

// Label returns the device's label used in operation descriptors.
func (d *Device) Label() string { return d.label }

// ID returns the device's interned operation-space ID.
func (d *Device) ID() shm.SpaceID { return d.id }

// Width returns the number of TAS bits.
func (d *Device) Width() int { return d.width }

// Tau returns the confirmation threshold τ.
func (d *Device) Tau() int { return d.tau }

// Cycles returns the number of clock cycles executed (diagnostics).
func (d *Device) Cycles() int64 { return d.cycles.Load() }

// widthMask returns the mask of the device's valid bit positions.
func (d *Device) widthMask() uint64 {
	if d.width == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << d.width) - 1
}

// RequestBit performs the phase-1 test-and-set on bit b of in_reg on
// behalf of p. It reports false if the bit was already set (the request is
// immediately lost) and true if p provisionally holds the bit; p must then
// call Resolve until the outcome is decided. One step.
func (d *Device) RequestBit(p *shm.Proc, b int) bool {
	ok, _ := d.Request(p, b)
	return ok
}

// Request is RequestBit plus the epoch token of the freshly set bit,
// captured atomically with the set (both under the device mutex, which
// also serializes the cycle/release epoch bumps). The requester resolves
// against the token with ResolveStep. One step.
func (d *Device) Request(p *shm.Proc, b int) (bool, uint32) {
	d.checkBit(b)
	p.Step(shm.Op{Kind: shm.OpTAS, Space: d.id, Index: int32(b)})
	mask := uint64(1) << b
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.in.Load()&mask != 0 {
		return false, 0
	}
	d.in.Or(mask)
	return true, d.epochs[b].Load()
}

// Resolve reads the device registers and reports the state of p's request
// on bit b. Reading the whole device is one operation in the paper's model
// ("it is possible to read all 2 log n individual bits within one
// operation"), so Resolve costs one step. On a self-clocked device a
// pending request triggers a clock cycle before the read.
func (d *Device) Resolve(p *shm.Proc, b int) Outcome {
	d.checkBit(b)
	p.Step(shm.Op{Kind: shm.OpRead, Space: d.id, Index: int32(b)})
	if d.selfClocked {
		if o := d.peek(b); o != Pending {
			return o
		}
		d.Cycle()
	}
	return d.peek(b)
}

// peek inspects the registers without stepping; internal and test use.
func (d *Device) peek(b int) Outcome {
	mask := uint64(1) << b
	if d.out.Load()&mask != 0 {
		return Won
	}
	if d.in.Load()&mask == 0 {
		return Lost
	}
	return Pending
}

// AcquireBit is the full §II.B protocol for one bit: request it, then
// resolve until decided. The returned outcome is Won or Lost. Resolution
// is epoch-checked, so under long-lived use (ReleaseBit) a request that
// was trimmed is Lost even if another process has since won the same bit.
func (d *Device) AcquireBit(p *shm.Proc, b int) Outcome {
	ok, tok := d.Request(p, b)
	if !ok {
		return Lost
	}
	for {
		if o := d.ResolveStep(p, b, tok); o != Pending {
			return o
		}
	}
}

// ResolveStep is one resolve of AcquireBit's loop: it reads the device
// registers for the request identified by (b, tok) — the token Request
// returned — and reports Won, Lost or Pending. One step. On a
// self-clocked device a pending request triggers a clock cycle before the
// decision, so it resolves in this step.
func (d *Device) ResolveStep(p *shm.Proc, b int, tok uint32) Outcome {
	d.checkBit(b)
	p.Step(shm.Op{Kind: shm.OpRead, Space: d.id, Index: int32(b)})
	if d.selfClocked {
		if o := d.peekTok(b, tok); o != Pending {
			return o
		}
		d.Cycle()
	}
	return d.peekTok(b, tok)
}

// peekTok inspects the registers for the request identified by (b, tok)
// without stepping. It decides exactly as the tokenless peek — out_reg set
// means decided, in_reg cleared means lost, otherwise pending — except
// that a set out_reg bit whose epoch moved past the token is Lost: the
// confirmation belongs to a later requester of the same bit, which can
// only exist once ReleaseBit reopened the device. Reading out_reg before
// the epoch keeps Won sound: epochs only grow, and every clear is preceded
// by its bump under the device mutex, so an unchanged epoch at the later
// read proves no clear preceded the out_reg observation.
func (d *Device) peekTok(b int, tok uint32) Outcome {
	mask := uint64(1) << b
	if d.out.Load()&mask != 0 {
		if d.epochs[b].Load() != tok {
			return Lost
		}
		return Won
	}
	if d.in.Load()&mask == 0 {
		return Lost
	}
	return Pending
}

// ReleaseBit clears bit b from both device registers — the release half of
// a long-lived τ-register, extending the one-shot hardware of §II.B the
// same way hardware test-and-set extends to test-and-set/reset. One step.
// Only the confirmed winner of bit b may call it. Under the device mutex
// the bit's epoch advances and then out_reg and in_reg are cleared, so a
// concurrent cycle never observes the half-released state and any stale
// resolve of an earlier trimmed request on the bit decides Lost instead of
// adopting a later winner's confirmation. The threshold contract is
// preserved — out_reg popcount only ever decreases here, so at most τ bits
// stay confirmed — but out_reg is no longer monotone once releases occur,
// which is exactly the long-lived semantics.
func (d *Device) ReleaseBit(p *shm.Proc, b int) {
	d.checkBit(b)
	p.Step(shm.Op{Kind: shm.OpClear, Space: d.id, Index: int32(b)})
	mask := ^(uint64(1) << b)
	d.mu.Lock()
	if d.in.Load()&^mask != 0 {
		d.epochs[b].Add(1)
	}
	d.out.And(mask)
	d.in.And(mask)
	d.mu.Unlock()
}

// ReadRequests reads in_reg on behalf of p (one step) and returns it. On a
// self-clocked device it first drives a cycle when requests are pending,
// so that stale provisional bits (e.g. of crashed processes) get decided
// before the caller inspects availability. Used by the fallback sweep.
func (d *Device) ReadRequests(p *shm.Proc) uint64 {
	p.Step(shm.Op{Kind: shm.OpRead, Space: d.id, Index: -1})
	if d.selfClocked && d.in.Load() != d.out.Load() {
		d.Cycle()
	}
	return d.in.Load()
}

// Full reads out_reg and reports whether the device has confirmed τ bits,
// i.e. can never confirm another request. One step.
func (d *Device) Full(p *shm.Proc) bool {
	p.Step(shm.Op{Kind: shm.OpRead, Space: d.id, Index: -1})
	return bits.OnesCount64(d.out.Load()) >= d.tau
}

// Cycle executes one clock cycle of the counting device (§II.C pseudocode
// lines 1-14). It costs processes nothing: it models the hardware clock.
// Safe for concurrent use; cycles are serialized.
func (d *Device) Cycle() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cycles.Add(1)

	// Line 1: allowed_bits = τ - popcnt(in_reg-at-cycle-start). At the
	// start of a cycle in_reg equals out_reg (every previous cycle ended
	// by copying), so the confirmed register is the faithful source even
	// though requests may land concurrently in in_reg.
	old := d.out.Load()
	allowed := d.tau - bits.OnesCount64(old)

	// Lines 2-3 (phase 1) happened asynchronously: requests are the bits
	// set in in_reg beyond out_reg.
	cur := d.in.Load()
	newBits := cur &^ old

	if bits.OnesCount64(cur) > d.tau {
		// Lines 5-12: keep only `allowed` of the new bits.
		kept := trimShiftScan(newBits, allowed, d.width)
		final := old | kept
		losers := newBits &^ kept
		// Each trimmed bit advances its epoch before the clear, so a
		// loser's pending resolve observes the bump no later than the
		// cleared bit and can never mistake a later winner for itself.
		for l := losers; l != 0; l &= l - 1 {
			d.epochs[bits.TrailingZeros64(l)].Add(1)
		}
		// Line 12: in_reg <- out_reg: clear exactly the loser bits
		// (requests serialize on the device mutex, so no concurrent
		// request can land mid-cycle).
		d.in.And(^losers)
		d.out.Store(final)
	} else {
		// Line 14: out_reg <- in_reg (all new requests confirmed).
		d.out.Store(cur)
	}
}

// ConfirmedCount returns popcnt(out_reg) without stepping (diagnostics).
func (d *Device) ConfirmedCount() int { return bits.OnesCount64(d.out.Load()) }

// RequestedCount returns popcnt(in_reg) without stepping (diagnostics).
func (d *Device) RequestedCount() int { return bits.OnesCount64(d.in.Load()) }

// Snapshot returns (in_reg, out_reg) without stepping (diagnostics/tests).
func (d *Device) Snapshot() (in, out uint64) { return d.in.Load(), d.out.Load() }

// Probe reports whether TAS bit i of in_reg is currently set; it
// implements shm.Probeable for adaptive adversaries.
func (d *Device) Probe(i int) bool {
	return d.in.Load()&(uint64(1)<<i) != 0
}

func (d *Device) checkBit(b int) {
	if b < 0 || b >= d.width {
		panic(fmt.Sprintf("taureg: bit %d outside [0,%d)", b, d.width))
	}
}

// trimShiftScan selects which of the new bits survive when the threshold
// is exceeded, exactly as §II.C lines 5-11: shift util_reg0 by every
// possible amount, pick the unique copy with popcnt equal to allowed_bits
// and a 1 in the first (most significant, in hardware order) position,
// and shift it back. The result is the `allowed` lowest-indexed new bits.
// allowed may be 0, in which case no bit survives.
func trimShiftScan(newBits uint64, allowed, width int) uint64 {
	if allowed <= 0 {
		return 0
	}
	if bits.OnesCount64(newBits) <= allowed {
		return newBits
	}
	mask := uint64(1)<<width - 1
	if width == 64 {
		mask = ^uint64(0)
	}
	msb := uint64(1) << (width - 1)
	for i := 1; i <= width; i++ {
		shifted := (newBits << (i - 1)) & mask
		if bits.OnesCount64(shifted) == allowed && shifted&msb != 0 {
			return shifted >> (i - 1)
		}
	}
	// Unreachable: popcnt(newBits) > allowed >= 1 guarantees a match.
	panic("taureg: trimShiftScan found no candidate")
}

// trimLowestK is the direct statement of the trim semantics: keep the k
// lowest-indexed set bits of newBits. It exists to property-test the
// faithful shift-scan against and for documentation value.
func trimLowestK(newBits uint64, k int) uint64 {
	if k <= 0 {
		return 0
	}
	var kept uint64
	for k > 0 && newBits != 0 {
		low := newBits & (-newBits) // lowest set bit
		kept |= low
		newBits &^= low
		k--
	}
	return kept
}
