package main

import "testing"

// TestPacerSchedule checks that DueBy releases each reading exactly at its
// due time and that the schedule keeps its rate, also for rates that do
// not divide a second.
func TestPacerSchedule(t *testing.T) {
	for _, rate := range []int64{stormRate, fedRate, 110_000, 333_333} {
		p := newPacer(1000, rate)
		if got := p.DueBy(999); got != 0 {
			t.Fatalf("rate %d: %d readings due before the start", rate, got)
		}
		for i := int64(0); i < 200_000; i++ {
			due := p.Due(i)
			if got := p.DueBy(due); got != i+1 {
				t.Fatalf("rate %d: DueBy(Due(%d)) = %d, want %d", rate, i, got, i+1)
			}
			if got := p.DueBy(due - 1); got != i {
				t.Fatalf("rate %d: DueBy(Due(%d)-1) = %d, want %d", rate, i, got, i)
			}
		}
		if got := p.DueBy(p.Start + 1e9 - 1); got != rate {
			t.Fatalf("rate %d: %d readings in the first second", rate, got)
		}
		// A tick releases about rate·tick readings.
		perTick := p.DueBy(p.Start+int64(tick)) - p.DueBy(p.Start)
		if want := rate * int64(tick) / 1e9; perTick < want || perTick > want+1 {
			t.Fatalf("rate %d: %d readings per tick, want %d", rate, perTick, want)
		}
	}
}

// TestReadingIDsUniqueAtTopRate checks that scheduled times, which are
// the readings' IDs, stay unique and map back to their sequence numbers
// at every rate of the ladder, up to its top step.
func TestReadingIDsUniqueAtTopRate(t *testing.T) {
	for _, ref := range []int64{stormRate, fedRate} {
		rates := ladderRates(ref)
		for _, rate := range []int64{rates[0], rates[len(rates)-1]} {
			p := newPacer(12345, rate)
			prev := int64(-1)
			for i := int64(0); i < 2_000_000; i++ {
				due := p.Due(i)
				if due <= prev {
					t.Fatalf("rate %d: Due(%d)=%d not after Due(%d)=%d", rate, i, due, i-1, prev)
				}
				if got := p.SeqOf(due); got != i {
					t.Fatalf("rate %d: SeqOf(Due(%d)) = %d", rate, i, got)
				}
				prev = due
			}
		}
	}
}

// TestClockStampRoundTrips checks that a reading's wall timestamp maps
// back to its exact due time.
func TestClockStampRoundTrips(t *testing.T) {
	c := newClock()
	for _, due := range []int64{0, 1, 999_999_999, 123_456_789_012} {
		if got := c.dueOf(c.stamp(due)); got != due {
			t.Fatalf("dueOf(stamp(%d)) = %d", due, got)
		}
	}
}

// TestWaitUntilNeverEarly checks the lateness accounting's premise: the
// generator never pushes an event before it is due.
func TestWaitUntilNeverEarly(t *testing.T) {
	c := newClock()
	defer lockGenerator()()
	for i := 0; i < 50; i++ {
		target := c.now() + int64(i%7)*20_000
		c.waitUntil(target)
		if now := c.now(); now < target {
			t.Fatalf("woke at %d, before %d", now, target)
		}
	}
}
