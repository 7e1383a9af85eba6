package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{xs, 2.5}, {[]float64{3, 1, 2}, 2}, {[]float64{7}, 7}, {[]float64{2, 2, 9}, 2},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

// The expected cut points are those of Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7, 1, 3, 5}, [3]float64{1.5, 4, 6.5}},
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9, 10}, [3]float64{4, 5, 8}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v", c.xs, q1, q2, q3, ok, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
}

func TestHistBucketsCoverTheirValues(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<22; v += 1 + v/97 {
		i := histIndex(v)
		low, width := histBounds(i)
		if float64(v) < low || float64(v) >= low+width {
			t.Fatalf("value %d in bucket %d = [%v, %v)", v, i, low, low+width)
		}
		if width > 1 && width > low/histSub {
			t.Fatalf("bucket %d is %v wide at %v", i, width, low)
		}
		if i < prev {
			t.Fatalf("bucket index decreased at %d", v)
		}
		prev = i
	}
	if i := histIndex(math.MaxInt64); i != histBuckets-1 {
		t.Errorf("huge value in bucket %d", i)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for _, v := range []int64{10, 20, 30} {
		h.record(v)
	}
	// Rank 1.5 falls half-way into the 1 ns bucket of the value 20.
	if got := h.quantile(0.5); got != 20.5 {
		t.Errorf("median = %v, want 20.5", got)
	}
	var big hist
	for v := int64(1); v <= 100000; v++ {
		big.record(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := big.quantile(q); math.Abs(got-want) > want/histSub {
			t.Errorf("q%v = %v, want %v within 1/%d", q, got, want, histSub)
		}
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("quantile of an empty hist is not NaN")
	}
}
