package main

import (
	"errors"

	"shmrename/internal/prng"
	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// port is what a workload loop drives: the public *shmrename.Arena
// satisfies it directly, and the traced run's rungs adapt the internal
// layers to it, so every rung replays the stream through the same loop.
// Ports are used by one worker at a time.
type port interface {
	Acquire() (int, error)
	AcquireN(k int) ([]int, error)
	Release(name int) error
	ReleaseAll(names []int) error
}

var errFull = errors.New("rung full")

// procPort drives a registry-shaped backend with one worker's own process
// context and totals the shared-memory steps of its acquires.
type procPort struct {
	a     registry.Arena
	p     *shm.Proc
	steps int64
}

func newProcPort(a registry.Arena, seed uint64, worker int) *procPort {
	return &procPort{a: a, p: shm.NewProc(worker, prng.NewStream(seed, worker), nil, 0)}
}

func (b *procPort) Acquire() (int, error) {
	before := b.p.Steps()
	n := b.a.Acquire(b.p)
	b.steps += b.p.Steps() - before
	if n < 0 {
		return -1, errFull
	}
	return n, nil
}

func (b *procPort) AcquireN(k int) ([]int, error) {
	before := b.p.Steps()
	names := b.a.AcquireN(b.p, k, make([]int, 0, k))
	b.steps += b.p.Steps() - before
	if len(names) < k {
		b.a.ReleaseN(b.p, names)
		return nil, errFull
	}
	return names, nil
}

func (b *procPort) Release(name int) error {
	b.a.Release(b.p, name)
	return nil
}

func (b *procPort) ReleaseAll(names []int) error {
	b.a.ReleaseN(b.p, names)
	return nil
}

// wordPort is the bottom rung: a bare shm.NameSpace driven by the
// word-claim kernel. An acquire tries shmProbes random words with
// ClaimFirstFree, then scans every word from a random start; a release is
// one Free.
type wordPort struct {
	ns    *shm.NameSpace
	p     *shm.Proc
	steps int64
}

const shmProbes = 4

func newWordPort(ns *shm.NameSpace, seed uint64, worker int) *wordPort {
	return &wordPort{ns: ns, p: shm.NewProc(worker, prng.NewStream(seed, worker), nil, 0)}
}

func (w *wordPort) claim() int {
	words := w.ns.Words()
	r := w.p.Rand()
	for i := 0; i < shmProbes; i++ {
		if n := w.ns.ClaimFirstFree(w.p, r.Intn(words)); n >= 0 {
			return n
		}
	}
	start := r.Intn(words)
	for i := 0; i < words; i++ {
		if n := w.ns.ClaimFirstFree(w.p, (start+i)%words); n >= 0 {
			return n
		}
	}
	return -1
}

func (w *wordPort) Acquire() (int, error) {
	before := w.p.Steps()
	n := w.claim()
	w.steps += w.p.Steps() - before
	if n < 0 {
		return -1, errFull
	}
	return n, nil
}

func (w *wordPort) AcquireN(k int) ([]int, error) {
	out := make([]int, 0, k)
	for len(out) < k {
		n, err := w.Acquire()
		if err != nil {
			_ = w.ReleaseAll(out) // cannot fail
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func (w *wordPort) Release(name int) error {
	w.ns.Free(w.p, name)
	return nil
}

func (w *wordPort) ReleaseAll(names []int) error {
	for _, n := range names {
		w.ns.Free(w.p, n)
	}
	return nil
}
