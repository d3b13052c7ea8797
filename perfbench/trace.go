package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Span is one timed interval of one reading's (or round's) path through a
// layer. ID is the reading's scheduled time for event workloads and the
// round number for city; Parent names the enclosing span of the same ID
// ("" for the root).
type Span struct {
	ID         int64
	Name       string
	Parent     string
	Start, End int64 // ns on the benchmark clock
}

// Tracer keeps spans in memory up to a fixed capacity and writes them out
// when the run ends. A nil *Tracer records nothing, so untraced code paths
// pay one nil check. Spans beyond capacity are counted, not kept.
type Tracer struct {
	on      atomic.Bool
	mu      sync.Mutex
	spans   []Span
	limit   int
	dropped atomic.Uint64
}

func newTracer(limit int) *Tracer {
	return &Tracer{spans: make([]Span, 0, limit), limit: limit}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// Add records a span while tracing is enabled.
func (t *Tracer) Add(s Span) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// Spans returns the recorded spans; call it after recording has stopped.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteCSV writes the spans as "id,name,parent,start_ns,end_ns" lines.
func (t *Tracer) WriteCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,parent,start_ns,end_ns")
	for _, s := range t.Spans() {
		fmt.Fprintf(w, "%d,%s,%s,%d,%d\n", s.ID, s.Name, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coveredNs returns how much of [lo, hi) the union of the intervals
// covers; intervals may overlap and stick out of the window.
func coveredNs(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, x := range clipped {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// SelfTimes computes each span's self time — its duration minus the part
// its children (spans of the same ID naming it as parent) cover — and
// sums them per span name. It returns name → (total self ns, spans).
func SelfTimes(spans []Span) map[string]LayerTime {
	type key struct {
		id   int64
		name string
	}
	children := make(map[key][][2]int64)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]LayerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		self := dur - coveredNs(s.Start, s.End, children[key{s.ID, s.Name}])
		lt := out[s.Name]
		lt.SelfNs += self
		lt.TotalNs += dur
		lt.Spans++
		out[s.Name] = lt
	}
	return out
}

// LayerTime is the per-name aggregate SelfTimes produces.
type LayerTime struct {
	SelfNs, TotalNs int64
	Spans           int
}
