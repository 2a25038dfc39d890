package main

import (
	"fmt"
	"sync/atomic"
)

// oracle is the shadow owner table that checks every grant and release:
// one atomic word per name below the arena's NameBound, holding 0 while
// the name is free and owner+1 while a worker holds it. A grant CASes
// 0 → owner+1 and a release CASes it back, so a duplicate grant, a name
// out of range or a release of a name the worker does not hold fails the
// run. Every rung and both commits pay this cost identically.
type oracle struct {
	owner []atomic.Uint32
	err   atomic.Pointer[error]
}

func newOracle(nameBound int) *oracle {
	return &oracle{owner: make([]atomic.Uint32, nameBound)}
}

func (o *oracle) fail(format string, args ...any) bool {
	err := fmt.Errorf(format, args...)
	o.err.CompareAndSwap(nil, &err)
	return false
}

// failed returns the first violation, nil while every check passed.
func (o *oracle) failed() error {
	if e := o.err.Load(); e != nil {
		return *e
	}
	return nil
}

// grant records that worker w was granted name.
func (o *oracle) grant(w, name int) bool {
	if name < 0 || name >= len(o.owner) {
		return o.fail("worker %d granted name %d outside [0, %d)", w, name, len(o.owner))
	}
	if !o.owner[name].CompareAndSwap(0, uint32(w)+1) {
		return o.fail("duplicate grant: name %d granted to worker %d while worker %d holds it",
			name, w, int(o.owner[name].Load())-1)
	}
	return true
}

// free records that worker w released name.
func (o *oracle) free(w, name int) bool {
	if name < 0 || name >= len(o.owner) || !o.owner[name].CompareAndSwap(uint32(w)+1, 0) {
		return o.fail("worker %d released name %d it does not hold", w, name)
	}
	return true
}

// held counts the names the table records as held.
func (o *oracle) held() int {
	n := 0
	for i := range o.owner {
		if o.owner[i].Load() != 0 {
			n++
		}
	}
	return n
}
