package shmrename

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestArenaBackends(t *testing.T) {
	for _, backend := range defaultAndStormBackends() {
		a, err := NewArena(ArenaConfig{Capacity: 64, Backend: backend, Seed: 1})
		if err != nil {
			t.Fatalf("%q: %v", backend, err)
		}
		seen := make(map[int]bool)
		var names []int
		for i := 0; i < 64; i++ {
			n, err := a.Acquire()
			if err != nil {
				t.Fatalf("%q acquire %d: %v", backend, i, err)
			}
			if n < 0 || n >= a.NameBound() {
				t.Fatalf("%q: name %d outside [0,%d)", backend, n, a.NameBound())
			}
			if seen[n] {
				t.Fatalf("%q: name %d issued twice", backend, n)
			}
			seen[n] = true
			names = append(names, n)
		}
		if a.Held() != 64 {
			t.Fatalf("%q: held %d, want 64", backend, a.Held())
		}
		for _, n := range names {
			if err := a.Release(n); err != nil {
				t.Fatalf("%q release %d: %v", backend, n, err)
			}
		}
		if a.Held() != 0 {
			t.Fatalf("%q: held %d after drain", backend, a.Held())
		}
		// Long-lived: a fresh generation succeeds on the drained arena.
		if _, err := a.Acquire(); err != nil {
			t.Fatalf("%q reacquire: %v", backend, err)
		}
	}
}

func TestArenaConcurrentChurn(t *testing.T) {
	for _, cfg := range []ArenaConfig{
		{Capacity: 32, Seed: 7},
		{Capacity: 32, Seed: 7, Backend: ArenaBackendSharded, Shards: 4},
	} {
		a, err := NewArena(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 32)
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < 50; c++ {
					n, err := a.Acquire()
					if err != nil {
						errs <- err
						return
					}
					if err := a.Release(n); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: %v", a.Backend(), err)
		}
		if a.Held() != 0 {
			t.Fatalf("%s: held %d after churn", a.Backend(), a.Held())
		}
	}
}

func TestArenaFullAndReleaseErrors(t *testing.T) {
	a, err := NewArena(ArenaConfig{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Drain the arena structurally; Acquire must eventually report full
	// instead of spinning forever.
	for i := 0; i < a.NameBound(); i++ {
		if _, err := a.Acquire(); err != nil {
			if !errors.Is(err, ErrArenaFull) {
				t.Fatalf("unexpected acquire error: %v", err)
			}
			break
		}
	}
	if _, err := a.Acquire(); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("acquire on full arena: %v, want ErrArenaFull", err)
	}
}

// TestArenaReleaseOutOfRange pins the descriptive-error convention for
// Release: an out-of-range name is not held, so the error wraps ErrNotHeld
// and names the offending value and the valid range.
func TestArenaReleaseOutOfRange(t *testing.T) {
	a, err := NewArena(ArenaConfig{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	bound := a.NameBound()
	cases := []struct {
		name int
		want []string
	}{
		{-1, []string{"-1", fmt.Sprintf("[0, %d)", bound)}},
		{-1 << 20, []string{fmt.Sprintf("%d", -1<<20)}},
		{bound, []string{fmt.Sprintf("%d", bound), fmt.Sprintf("[0, %d)", bound)}},
		{bound + 41, []string{fmt.Sprintf("%d", bound+41)}},
	}
	for _, tc := range cases {
		err := a.Release(tc.name)
		if !errors.Is(err, ErrNotHeld) {
			t.Fatalf("Release(%d) = %v, want ErrNotHeld", tc.name, err)
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Fatalf("Release(%d) error %q missing %q", tc.name, err, frag)
			}
		}
	}
}

func TestArenaReleaseNotHeld(t *testing.T) {
	a, err := NewArena(ArenaConfig{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	n, err := a.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release(n); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(n); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("double release: %v, want ErrNotHeld", err)
	}
}

func TestNewArenaConfigErrors(t *testing.T) {
	cases := []ArenaConfig{
		{Capacity: 0},
		{Capacity: -3},
		{Capacity: 1 << 29},
		{Capacity: 8, Backend: "warp-array"},
		{Capacity: 8, Probe: "nibble"},
		// Sharded-backend knob validation.
		{Capacity: 8, Backend: ArenaBackendSharded, Shards: -1},
		{Capacity: 8, Backend: ArenaBackendSharded, Shards: 9},
		// Sharded knobs rejected on non-sharded backends.
		{Capacity: 8, Shards: 2},
		{Capacity: 8, Backend: ArenaTau, Shards: 2},
		// Named-backend knobs rejected on the registry-only lease-cached
		// backend.
		{Capacity: 256, Backend: "lease-cached", Probe: ProbeWord},
		{Capacity: 256, Backend: "lease-cached", Probe: ProbeBit},
		{Capacity: 256, Backend: "lease-cached", LeaseBlocks: 64},
		{Capacity: 256, Backend: "lease-cached", Shards: 2},
		{Capacity: 256, Backend: "lease-cached", Elastic: &ElasticConfig{}},
	}
	for i, cfg := range cases {
		if _, err := NewArena(cfg); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
}
