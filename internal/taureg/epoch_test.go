package taureg

import (
	"testing"

	"shmrename/internal/prng"
	"shmrename/internal/shm"
)

// TestTrimmedRequestNeverAdoptsLaterWinner pins the long-lived aliasing
// hazard: once ReleaseBit reopens a device, a bit that was trimmed away
// from one requester can be re-requested and confirmed for another. The
// first requester's delayed resolve must decide Lost — without the per-bit
// epoch tag it would observe the set out_reg bit and falsely return Won,
// putting two owners on one physical bit.
func TestTrimmedRequestNeverAdoptsLaterWinner(t *testing.T) {
	d := NewDevice("epoch-alias", 4, 1, false) // externally clocked
	p0 := shm.NewProc(0, prng.New(1), nil, 0)
	p1 := shm.NewProc(1, prng.New(2), nil, 0)
	p2 := shm.NewProc(2, prng.New(3), nil, 0)

	// P0 and P1 request concurrently; the cycle confirms the lowest bit
	// (P0) and trims P1's request away.
	if ok, _ := d.Request(p0, 0); !ok {
		t.Fatal("p0 request failed")
	}
	ok, tok1 := d.Request(p1, 1)
	if !ok {
		t.Fatal("p1 request failed")
	}
	d.Cycle()
	if got := d.peek(0); got != Won {
		t.Fatalf("p0 bit: %v, want won", got)
	}
	// P1 has NOT resolved yet. The winner releases, reopening the device,
	// and P2 re-requests the very bit P1 was trimmed from and wins it.
	d.ReleaseBit(p0, 0)
	ok, tok2 := d.Request(p2, 1)
	if !ok {
		t.Fatal("p2 request failed")
	}
	d.Cycle()
	if got := d.peekTok(1, tok2); got != Won {
		t.Fatalf("p2 resolve: %v, want won", got)
	}
	// P1's delayed resolve must not adopt P2's confirmation.
	if got := d.peekTok(1, tok1); got != Lost {
		t.Fatalf("p1 delayed resolve: %v, want lost (bit now belongs to p2)", got)
	}
}

// TestReleaseBumpsEpochOnlyForSetBits checks the release path's epoch
// discipline: releasing a held bit invalidates outstanding tokens for it,
// while a (protocol-violating) release of a free bit changes nothing.
func TestReleaseBumpsEpochOnlyForSetBits(t *testing.T) {
	d := NewDevice("epoch-release", 4, 2, true)
	p := shm.NewProc(0, prng.New(9), nil, 0)
	if d.AcquireBit(p, 2) != Won {
		t.Fatal("bit 2 not won")
	}
	before := d.epochs[2].Load()
	d.ReleaseBit(p, 2)
	if got := d.epochs[2].Load(); got != before+1 {
		t.Fatalf("epoch after release = %d, want %d", got, before+1)
	}
	free := d.epochs[3].Load()
	d.ReleaseBit(p, 3) // bit 3 was never requested
	if got := d.epochs[3].Load(); got != free {
		t.Fatalf("epoch of free bit moved to %d", got)
	}
}
