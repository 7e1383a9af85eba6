package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds. Values below 256
// land in exact 1 ns buckets; above that every power of two is split into
// 128 buckets, so a bucket is never wider than 1/128 of the values in it.
// Percentiles interpolate inside the bucket. A hist has one writer.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits  = 7
	histSub      = 1 << histSubBits // buckets per power of two
	histMaxShift = 30               // values at or above 2^38 ns (~4.6 min) clamp
	histBuckets  = (histMaxShift + 2) * histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - (histSubBits + 1)
	if shift > histMaxShift {
		return histBuckets - 1
	}
	return shift*histSub + int(uint64(v)>>uint(shift))
}

// histBounds returns the lowest value of bucket i and its width.
func histBounds(i int) (low, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	return float64((i%histSub + histSub) << uint(shift)), float64(int64(1) << uint(shift))
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds, placing the
// samples of a bucket evenly across its width. It returns NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n) // samples strictly below the answer
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, width := histBounds(i)
			return low + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	low, width := histBounds(histBuckets - 1)
	return low + width
}

// median returns the middle value of xs, or the mean of the two middle
// values; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does with its default exclusive method,
// which is how the benchmark's run-to-run spread is judged. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		// Python clamps j to [1, n-1] before computing the weight.
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
