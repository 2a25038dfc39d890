package main

import (
	"math"
	"math/bits"
)

// hist is a latency histogram in nanoseconds: exact 1 ns buckets below
// linearLimit, then 64 log-linear sub-buckets per power of two (under 1.6%
// relative width). Quantiles interpolate inside the bucket that holds the
// rank, as the grouped-data median does, so a quantile of integer
// nanosecond samples keeps its fractional digits instead of snapping to a
// bucket edge.
type hist struct {
	counts []uint64
	n      uint64
	sum    float64
}

const (
	linearLimit = 4096
	subBits     = 6
	maxExp      = 40 // values up to 2^40 ns (~18 min) are kept
)

func newHist() *hist {
	return &hist{counts: make([]uint64, linearLimit+(maxExp-12)<<subBits)}
}

// bucket maps a value to its bucket index.
func bucket(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < linearLimit {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // 2^e <= v < 2^(e+1), e >= 12
	if e >= maxExp {
		e, v = maxExp-1, 1<<maxExp-1
	}
	sub := int(uint64(v)>>(e-subBits)) & (1<<subBits - 1)
	return linearLimit + (e-12)<<subBits + sub
}

// bounds returns the half-open value range [lo, hi) of bucket i.
func bounds(i int) (lo, hi float64) {
	if i < linearLimit {
		return float64(i), float64(i + 1)
	}
	j := i - linearLimit
	e := j>>subBits + 12
	sub := j & (1<<subBits - 1)
	w := math.Ldexp(1, e-subBits)
	lo = math.Ldexp(1, e) + float64(sub)*w
	return lo, lo + w
}

func (h *hist) add(v int64) {
	h.counts[bucket(v)]++
	h.n++
	h.sum += float64(v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile (0 < q < 1), interpolated linearly inside
// the bucket holding rank q·n; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if below+float64(c) >= rank {
			lo, hi := bounds(i)
			return lo + (hi-lo)*(rank-below)/float64(c)
		}
		below += float64(c)
	}
	lo, hi := bounds(len(h.counts) - 1)
	return (lo + hi) / 2
}

// fractionAtMost returns the share of samples not above v.
func (h *hist) fractionAtMost(v int64) float64 {
	if h.n == 0 {
		return 0
	}
	b := bucket(v)
	var c uint64
	for i := 0; i <= b; i++ {
		c += h.counts[i]
	}
	return float64(c) / float64(h.n)
}
