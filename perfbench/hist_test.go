package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistogramQuantilesMatchExactSort checks every reported quantile
// against an exact sort of the same seeded samples: the estimate must lie
// within one bucket (1/32 of the value) of the true order statistic.
func TestHistogramQuantilesMatchExactSort(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		var h Histogram
		xs := make([]int64, 20000)
		for i := range xs {
			// Log-normal latencies from ~100ns to ~100ms.
			xs[i] = int64(math.Exp(r.NormFloat64()*2 + 11))
			h.Record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(len(xs))))
			exact := float64(xs[rank-1])
			got := h.Quantile(q)
			if diff := math.Abs(got - exact); diff > exact/32+1 {
				t.Errorf("seed %d q=%g: histogram %.0f, exact %.0f (off by %.2f%%)", seed, q, got, exact, 100*diff/exact)
			}
		}
		if h.Count() != uint64(len(xs)) {
			t.Fatalf("count %d, want %d", h.Count(), len(xs))
		}
	}
}

// TestBucketsAreContiguousAndNarrow checks that buckets tile the value
// range without gaps and that none is wider than 1/32 of its lower bound.
func TestBucketsAreContiguousAndNarrow(t *testing.T) {
	var prevHi int64
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if lo >= histSub && float64(hi-lo) > float64(lo)/32 {
			t.Fatalf("bucket %d [%d,%d) wider than 1/32", i, lo, hi)
		}
		if bucketOf(lo) != i || bucketOf(hi-1) != i {
			t.Fatalf("bucket %d bounds map to %d and %d", i, bucketOf(lo), bucketOf(hi-1))
		}
		prevHi = hi
	}
}

// TestTailLevelKeepsTenBeyond checks the tail rule: the highest level of
// the ladder with at least ten samples above it.
func TestTailLevelKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {40, 0.75}, {20, 0.50}, {10, 0}} {
		if got := tailLevel(c.n, 10); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestWindowedReportsMedianOverWindows checks that one spoiled window
// does not move the windowed statistics.
func TestWindowedReportsMedianOverWindows(t *testing.T) {
	w := newWindowed(0, 5000, 1000)
	for win := int64(0); win < 5; win++ {
		v := int64(100)
		if win == 2 {
			v = 100000 // one window of interference
		}
		for i := int64(0); i < 1000; i++ {
			w.Record(win*1000+i, v)
		}
	}
	w.Record(6000, 1) // past the last window: All only
	// 100 lies in bucket [100, 102).
	if got := w.P50(); got < 100 || got >= 102 {
		t.Errorf("P50 = %g, want within [100, 102)", got)
	}
	if tail, level := w.Tail(); tail < 100 || tail >= 102 || level != 0.99 {
		t.Errorf("Tail = %g at %g, want within [100, 102) at 0.99", tail, level)
	}
	if w.All.Count() != 5001 {
		t.Errorf("All holds %d samples, want 5001", w.All.Count())
	}
}
