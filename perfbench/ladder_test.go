package main

import "testing"

func flat(n int, v int64) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// TestStepStoppingRule checks each way a ladder step fails.
func TestStepStoppingRule(t *testing.T) {
	growing := make([]int64, 100)
	for i := range growing {
		growing[i] = int64(i) * 1000
	}
	cases := []struct {
		name string
		r    StepResult
		pass bool
	}{
		{"clean", StepResult{Rate: 100_000, P99Ns: 2e6, Backlog: flat(100, 50)}, true},
		{"drops", StepResult{Rate: 100_000, P99Ns: 2e6, Drops: 1, Backlog: flat(100, 50)}, false},
		{"p99 over limit", StepResult{Rate: 100_000, P99Ns: latencyLimit + 1, Backlog: flat(100, 50)}, false},
		{"p99 at limit", StepResult{Rate: 100_000, P99Ns: latencyLimit, Backlog: flat(100, 50)}, true},
		{"growing backlog", StepResult{Rate: 100_000, P99Ns: 2e6, Backlog: growing}, false},
		// Doubling below the 10 ms-of-load floor is noise, not growth.
		{"small growth", StepResult{Rate: 100_000, P99Ns: 2e6, Backlog: append(flat(50, 10), flat(50, 40)...)}, true},
	}
	for _, c := range cases {
		if ok, why := stepPasses(c.r); ok != c.pass {
			t.Errorf("%s: pass=%v (%s), want %v", c.name, ok, why, c.pass)
		}
	}
}

// TestClimbStopsAtFirstFailure checks that the ladder reports the last
// rate before the first failing step and runs no step after it.
func TestClimbStopsAtFirstFailure(t *testing.T) {
	rates := ladderRates(100_000)
	var ran []int64
	best, why := climb(100_000, func(rate int64) StepResult {
		ran = append(ran, rate)
		r := StepResult{Rate: rate, P99Ns: 1e6, Backlog: flat(8, 0)}
		if rate >= rates[3] {
			r.P99Ns = 2 * latencyLimit
		}
		return r
	})
	if best != rates[2] {
		t.Fatalf("sustained %d, want %d (%s)", best, rates[2], why)
	}
	if len(ran) != 4 {
		t.Fatalf("ran %d steps, want 4", len(ran))
	}
	for i := 1; i < len(rates); i++ {
		if step := float64(rates[i]) / float64(rates[i-1]); step < 1.09 || step > 1.11 {
			t.Fatalf("step %d is %.3fx, want ~1.10x", i, step)
		}
	}
}
