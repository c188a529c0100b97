package main

import "math/bits"

// hist is a fixed-size log-linear latency histogram over nanoseconds:
// 128 linear sub-buckets per power of two (≤0.8 % bucket width), so the
// measured loop records a sample with two increments and no allocation.
type hist struct {
	n int64
	b [histBuckets]int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values up to 2^41 ns (~37 min) keep full precision; larger clamp.
	histMaxExp  = 41
	histBuckets = (histMaxExp - histSubBits + 2) * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 1 - histSubBits
	if shift > histMaxExp-histSubBits {
		return histBuckets - 1
	}
	return (shift+1)<<histSubBits | int(ns>>uint(shift))&(histSub-1)
}

// histBounds returns the lower bound and width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := uint(i>>histSubBits - 1)
	return float64(int64(histSub|i&(histSub-1)) << shift), float64(int64(1) << shift)
}

func (h *hist) record(ns int64) {
	h.n++
	h.b[histIndex(ns)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds the target rank.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := histBounds(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}
