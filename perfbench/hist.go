package main

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-bucket histogram of non-negative int64
// samples (nanoseconds, counts). Values below 32 get a bucket each; above,
// every power of two is split into 32 linear sub-buckets, so a bucket is at
// most 1/32 (3.1%) of its lower bound wide. Record is one atomic add; the
// histogram never allocates after construction.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// histMaxExp covers values up to 2^47 ns (~39 hours); larger values
	// clamp into the last bucket.
	histMaxExp  = 43
	histBuckets = (histMaxExp + 1) * histSub
)

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits // >= 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	mant := int(uint64(v) >> (e - 1)) // in [32, 63]
	return e*histSub + mant - histSub
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i) + 1
	}
	e := i / histSub
	mant := int64(i%histSub + histSub)
	lo = mant << (e - 1)
	return lo, lo + 1<<(e-1)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile returns the q-quantile (0 < q <= 1): the sample of rank
// ceil(q·n), placed inside its bucket by its rank among the bucket's
// samples, or 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q*float64(n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if cum+c >= rank {
			// Place the sample linearly inside its bucket by its rank
			// among the bucket's samples.
			lo, hi := bucketBounds(i)
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += c
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return float64(lo)
}

// tailLevels are the percentiles a tail report may fall back to; a fixed
// ladder keeps the reported level stable between runs with similar counts.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tailLevel returns the highest level in tailLevels that leaves at least
// minBeyond of n samples above it, or 0 when none does.
func tailLevel(n uint64, minBeyond uint64) float64 {
	for _, q := range tailLevels {
		rank := uint64(q*float64(n) + 0.999999999)
		if n >= rank && n-rank >= minBeyond {
			return q
		}
	}
	return 0
}

// Tail returns the highest percentile of tailLevels with at least ten
// samples beyond it, and that level (0 when there are too few samples).
func (h *Histogram) Tail() (value, level float64) {
	level = tailLevel(h.count.Load(), 10)
	if level == 0 {
		return 0, 0
	}
	return h.Quantile(level), level
}

// Summary renders "p50 X, pNN Y (n=N)" with values scaled by div; with
// too few samples for a tail it reports the maximum instead.
func (h *Histogram) Summary(div float64, unit string) string {
	tail, level := h.Tail()
	name := fmt.Sprintf("p%g", level*100)
	if level == 0 {
		tail, name = h.Quantile(1), "max"
	}
	return fmt.Sprintf("p50 %.4g%s, %s %.4g%s (n=%d)",
		h.Quantile(0.5)/div, unit, name, tail/div, unit, h.Count())
}

// Windowed splits samples into fixed-width windows by the time they
// belong to (a reading's due time, a round's start) and reports medians
// over the windows, so interference that spoils one window moves the
// result by at most one rank. All holds every sample.
type Windowed struct {
	start, width int64
	All          Histogram
	win          []Histogram
}

// windowWidth is the width of one measurement window.
const windowWidth = int64(time.Second)

// newWindowed covers [start, end) with whole windows of width; samples
// past the last whole window go to All only.
func newWindowed(start, end, width int64) *Windowed {
	n := (end - start) / width
	return &Windowed{start: start, width: width, win: make([]Histogram, max(n, 1))}
}

// Record adds sample v belonging to time at.
func (w *Windowed) Record(at, v int64) {
	w.All.Record(v)
	if i := (at - w.start) / w.width; at >= w.start && i < int64(len(w.win)) {
		w.win[i].Record(v)
	}
}

// filled returns the windows holding samples.
func (w *Windowed) filled() []*Histogram {
	var out []*Histogram
	for i := range w.win {
		if w.win[i].Count() > 0 {
			out = append(out, &w.win[i])
		}
	}
	return out
}

// P50 returns the median over windows of each window's median.
func (w *Windowed) P50() float64 {
	var xs []float64
	for _, h := range w.filled() {
		xs = append(xs, h.Quantile(0.5))
	}
	return median(xs)
}

// Tail returns the median over windows of each window's tail quantile,
// at the highest tailLevels level that leaves ten samples beyond it in a
// window of median size, and that level.
func (w *Windowed) Tail() (float64, float64) {
	hs := w.filled()
	if len(hs) == 0 {
		return 0, 0
	}
	counts := make([]float64, len(hs))
	for i, h := range hs {
		counts[i] = float64(h.Count())
	}
	level := tailLevel(uint64(median(counts)), 10)
	if level == 0 {
		return 0, 0
	}
	xs := make([]float64, len(hs))
	for i, h := range hs {
		xs[i] = h.Quantile(level)
	}
	return median(xs), level
}

// Summary renders the windowed medians and the sample counts.
func (w *Windowed) Summary(div float64, unit string) string {
	tail, level := w.Tail()
	return fmt.Sprintf("p50 %.4g%s, p%g %.4g%s (medians over %d windows; n=%d)",
		w.P50()/div, unit, level*100, tail/div, unit, len(w.filled()), w.All.Count())
}
