package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSelfTimeArithmetic checks self time = duration minus the union of
// the children's intervals, with overlapping children counted once and
// children sticking out of the parent clipped.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{ID: 7, Name: "reading", Start: 0, End: 100},
		{ID: 7, Name: "a", Parent: "reading", Start: 10, End: 30},
		{ID: 7, Name: "b", Parent: "reading", Start: 20, End: 50},  // overlaps a
		{ID: 7, Name: "c", Parent: "reading", Start: 90, End: 120}, // sticks out
		{ID: 7, Name: "d", Parent: "b", Start: 25, End: 35},        // grandchild
		{ID: 8, Name: "a", Parent: "reading", Start: 0, End: 1000}, // other ID
		{ID: 9, Name: "reading", Start: 0, End: 10},                // no children
	}
	st := SelfTimes(spans)
	// reading#7 covered by [10,50) and [90,100): 40+10 = 50, self 50;
	// reading#9 self 10.
	if got := st["reading"]; got.SelfNs != 60 || got.TotalNs != 110 || got.Spans != 2 {
		t.Errorf("reading = %+v, want self 60, total 110, 2 spans", got)
	}
	// b [20,50) minus d [25,35): 20.
	if got := st["b"].SelfNs; got != 20 {
		t.Errorf("b self = %d, want 20", got)
	}
	if got := st["a"].SelfNs; got != 20+1000 {
		t.Errorf("a self = %d, want 1020", got)
	}
}

func TestCoveredNs(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := coveredNs(0, 25, iv); got != 3+7+5 {
		t.Fatalf("covered %d, want 15", got)
	}
	if got := coveredNs(40, 50, iv); got != 0 {
		t.Fatalf("covered %d outside all intervals", got)
	}
}

// TestCatalogMatchesBenchmarkJSON checks that the metrics the program
// reports are exactly the ones BENCHMARK.json declares, with its units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, catalog map[string]string) {
		if len(listed) != len(catalog) {
			t.Errorf("%s: BENCHMARK.json lists %d, program reports %d", kind, len(listed), len(catalog))
		}
		for _, m := range listed {
			if unit, ok := catalog[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] not reported as listed (program: %q)", kind, m.Name, m.Unit, unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
	want := map[string]bool{"storm": true, "city": true, "federated-churn": true}
	for _, w := range b.Workloads {
		if !want[w.Name] {
			t.Errorf("workload %s has no implementation", w.Name)
		}
		delete(want, w.Name)
	}
	for w := range want {
		t.Errorf("workload %s missing from BENCHMARK.json", w)
	}
}

// TestCompleteRejectsMissingTimings checks the result-line guard: idle
// counts default to zero, missing timings are an error.
func TestCompleteRejectsMissingTimings(t *testing.T) {
	cat := map[string]string{"x_ms": "ms", "y": "count"}
	if err := complete(map[string]metric{"y": {1, "count"}}, cat); err == nil {
		t.Error("missing timing accepted")
	}
	got := map[string]metric{"x_ms": {1.5, "ms"}}
	if err := complete(got, cat); err != nil || got["y"].Value != 0 {
		t.Errorf("idle count not zero-filled: %v %+v", err, got)
	}
	if err := complete(map[string]metric{"x_ms": {1, "ms"}, "z": {1, "count"}}, cat); err == nil {
		t.Error("uncatalogued metric accepted")
	}
}
