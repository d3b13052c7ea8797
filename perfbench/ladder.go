package main

import "fmt"

// Ladder search for sustained_eps: offered rates rise by ladderStep per
// step from the reference rate; the result is the highest rate that passed
// before the first failing step.
const (
	ladderStep    = 1.10
	latencyLimit  = 50e6 // delivery p99 limit, ns
	ladderMaxStep = 24
)

// StepResult is what one ladder step measured.
type StepResult struct {
	Rate  int64
	P99Ns float64 // delivery tail at the step's rate
	Drops uint64  // readings dropped or refused during the step
	// Backlog holds accepted − delivered − dropped sampled evenly across
	// the step.
	Backlog []int64
}

// stepPasses applies the stopping rule: a step fails on any drop, on a
// delivery p99 above the limit, or on a backlog that keeps growing — the
// last quarter of the samples averaging above both twice the first
// quarter and a floor of 10 ms worth of offered load.
func stepPasses(r StepResult) (bool, string) {
	if r.Drops > 0 {
		return false, fmt.Sprintf("%d drops", r.Drops)
	}
	if r.P99Ns > latencyLimit {
		return false, fmt.Sprintf("p99 %.1fms over %.0fms", r.P99Ns/1e6, latencyLimit/1e6)
	}
	if growing(r.Backlog, r.Rate/100) {
		return false, "growing backlog"
	}
	return true, ""
}

func growing(samples []int64, floor int64) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int64) float64 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	first, last := mean(samples[:q]), mean(samples[len(samples)-q:])
	return last > 2*first && last > float64(floor)
}

// ladderRates returns the offered rates of the ladder from ref upward.
func ladderRates(ref int64) []int64 {
	rates := make([]int64, 0, ladderMaxStep)
	r := float64(ref)
	for i := 0; i < ladderMaxStep; i++ {
		rates = append(rates, int64(r))
		r *= ladderStep
	}
	return rates
}

// climb runs steps until one fails and returns the last passing rate (0
// when even the first step fails) and why the climb stopped.
func climb(ref int64, run func(rate int64) StepResult) (int64, string) {
	var best int64
	for _, rate := range ladderRates(ref) {
		ok, why := stepPasses(run(rate))
		if !ok {
			return best, fmt.Sprintf("stopped at %d/s: %s", rate, why)
		}
		best = rate
	}
	return best, "top of ladder reached"
}
