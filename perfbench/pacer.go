package main

import (
	goruntime "runtime"
	"syscall"
	"time"
)

// Pacer is the open-loop schedule: Rate readings per second, reading i
// due at Start + ⌊i·1e9/Rate⌋ ns, regardless of how the system keeps up.
// The generator wakes once per tick and pushes every reading due by then,
// so readings leave in bursts of about Rate·tick, each stamped with its
// own due time. Due times are unique (Rate < 1e9) and map back to i by
// SeqOf, so they double as reading IDs.
type Pacer struct {
	Start int64 // phase start, ns on the benchmark clock
	Rate  int64 // readings per second
}

func newPacer(start, rate int64) Pacer { return Pacer{Start: start, Rate: rate} }

// Due returns the scheduled time of reading i.
func (p Pacer) Due(i int64) int64 { return p.Start + i*1e9/p.Rate }

// DueBy returns how many readings are due at time now.
func (p Pacer) DueBy(now int64) int64 {
	d := now - p.Start
	if d < 0 {
		return 0
	}
	return ((d+1)*p.Rate + 1e9 - 1) / 1e9
}

// SeqOf inverts Due.
func (p Pacer) SeqOf(t int64) int64 { return ((t-p.Start)*p.Rate + 1e9 - 1) / 1e9 }

// tick is the generator's pacing period: well under the latencies
// measured, and the longest a due reading waits to be pushed.
const tick = 100 * time.Microsecond

// clock is the benchmark's monotonic time base. Readings carry their
// scheduled time as wall time base+due, so any process-local consumer maps
// a reading back to its due time exactly with dueOf.
type clock struct {
	base   time.Time
	baseNs int64 // base.UnixNano()
}

func newClock() clock {
	b := time.Now()
	return clock{base: b, baseNs: b.UnixNano()}
}

// now returns monotonic nanoseconds since base.
func (c clock) now() int64 { return int64(time.Since(c.base)) }

// stamp converts a due time into the wall time a reading carries.
func (c clock) stamp(due int64) time.Time { return time.Unix(0, c.baseNs+due) }

// dueOf recovers the due time from a reading's wall timestamp.
func (c clock) dueOf(t time.Time) int64 { return t.UnixNano() - c.baseNs }

// waitUntil returns once the clock reads at least t. It sleeps in
// nanosleep on the generator's own OS thread, whose 1µs timer slack (see
// lockGenerator) wakes it within microseconds of t; a Go timer sleep
// rounds a 100 µs tick up to ~1 ms when the scheduler is idle.
func (c clock) waitUntil(t int64) {
	for {
		d := t - c.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}

// lockGenerator pins the calling goroutine to its OS thread and lowers the
// thread's timer slack to 1µs (prctl PR_SET_TIMERSLACK). The returned
// function undoes the pinning.
func lockGenerator() func() {
	goruntime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort
	return goruntime.UnlockOSThread
}
