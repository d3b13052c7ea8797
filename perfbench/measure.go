package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"sort"
	"time"
)

// setupTimes is one set-up of a workload's system, by stage.
type setupTimes struct {
	deploy, bind, attach, firstSync time.Duration
}

func (s setupTimes) total() time.Duration { return s.deploy + s.bind + s.attach + s.firstSync }

// repeatSetup sets the system up n times, tearing down all but the last,
// and reports setup_s as the median total and the per-stage medians as
// per-layer metrics. Each set-up starts from a collected heap.
func repeatSetup(rep *report, n int, setup func() (setupTimes, error), teardown func() error) error {
	var runs []setupTimes
	for k := 0; k < n; k++ {
		if k > 0 {
			if err := teardown(); err != nil {
				return err
			}
		}
		goruntime.GC()
		st, err := setup()
		if err != nil {
			return fmt.Errorf("setup %d: %w", k+1, err)
		}
		runs = append(runs, st)
	}
	med := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r).Seconds()
		}
		return median(xs)
	}
	totals := make([]string, len(runs))
	for i, r := range runs {
		totals[i] = fmt.Sprintf("%.3fs (deploy %.0fms, bind %.0fms, attach %.0fms", r.total().Seconds(),
			1e3*r.deploy.Seconds(), 1e3*r.bind.Seconds(), 1e3*r.attach.Seconds())
		if r.firstSync > 0 {
			totals[i] += fmt.Sprintf(", first sync %.0fms", 1e3*r.firstSync.Seconds())
		}
		totals[i] += ")"
	}
	fmt.Printf("setup x%d: %v\n", len(runs), totals)
	rep.setE2E("setup_s", med(setupTimes.total), "s")
	rep.setLayer("setup.deploy_ms", 1e3*med(func(s setupTimes) time.Duration { return s.deploy }), "ms")
	rep.setLayer("setup.bind_ms", 1e3*med(func(s setupTimes) time.Duration { return s.bind }), "ms")
	rep.setLayer("setup.attach_ms", 1e3*med(func(s setupTimes) time.Duration { return s.attach }), "ms")
	if sync := med(func(s setupTimes) time.Duration { return s.firstSync }); sync > 0 {
		rep.extra("setup.first_sync_ms", 1e3*sync, "ms")
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// eventRun is what the event generator measured.
type eventRun struct {
	untraced, traced *phase
	throughput       float64
	sustained        float64
	ladderNote       string
	ladderDrops      uint64 // dropped past the knee while climbing the ladder
	readings         uint64 // accepted in the untraced latency phase
	allocB           uint64
	gcs              uint32
	cpuNs            int64
	// Accepted, allocated and CPU in the closed-loop phase.
	closedReadings, closedAllocB uint64
	closedCPUNs                  int64
	backlogMax                   int64
}

// Shares of --seconds taken by the phases of an event run.
const (
	latencyShare    = 0.5
	throughputShare = 0.2
	ladderShare     = 0.3
)

// measureEvents runs the event workload's measured schedule: a warm-up,
// the open-loop latency phase at rate (split into an untraced and a
// traced half with tracing on), the rate ladder and the closed-loop
// throughput phase. around(true/false) brackets the phase the per-layer
// counters are taken over (the traced half when tracing, else the latency
// phase).
func (g *eventRig) measureEvents(o options, rate int64, around func(start bool)) (*eventRun, error) {
	run := &eventRun{}
	s := o.seconds
	window := func(d float64, r int64, traced bool) *phase {
		return g.newPhase(seconds(d), r, traced, g.deliveryWindow)
	}
	g.openLoop(window(min(1, 0.1*s), rate, false), nil)
	if err := g.quiesce(30 * time.Second); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	latency := latencyShare * s
	if o.trace {
		latency /= 2
	}
	var backlog []int64
	ph := window(latency, rate, false)
	if !o.trace {
		around(true)
	}
	mem := markMem()
	run.readings = g.openLoop(ph, &backlog)
	if err := g.quiesce(30 * time.Second); err != nil {
		return nil, fmt.Errorf("latency phase: %w", err)
	}
	run.allocB, run.gcs, run.cpuNs = mem.since()
	if !o.trace {
		around(false)
	}
	run.untraced = ph
	if o.trace {
		tp := window(latency, rate, true)
		g.tracer.on.Store(true)
		around(true)
		backlog = backlog[:0]
		g.openLoop(tp, &backlog)
		if err := g.quiesce(30 * time.Second); err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		around(false)
		g.tracer.on.Store(false)
		run.traced = tp
	}
	for _, b := range backlog {
		run.backlogMax = max(run.backlogMax, b)
	}

	d0 := g.drops()
	step := ladderShare * s / ladderMaxStep
	var stepErr error
	best, why := climb(rate, func(r int64) StepResult {
		var bl []int64
		st := window(step, r, false)
		sd := g.drops()
		g.openLoop(st, &bl)
		if err := g.quiesce(30 * time.Second); err != nil {
			stepErr = fmt.Errorf("ladder step at %d/s: %w", r, err)
			return StepResult{Rate: r, P99Ns: math.Inf(1)}
		}
		tail, _ := st.delivery.Tail()
		res := StepResult{Rate: r, P99Ns: tail, Drops: g.drops() - sd, Backlog: bl}
		fmt.Printf("ladder %7d/s: delivery %s, %d drops, backlog max %d\n",
			r, st.delivery.Summary(1e6, "ms"), res.Drops, slices.Max(append(bl, 0)))
		return res
	})
	run.sustained, run.ladderNote = float64(best), why
	run.ladderDrops = g.drops() - d0
	if stepErr != nil {
		return nil, stepErr
	}

	acc0, mem := g.accepted.Load(), markMem()
	run.throughput = g.closedLoop(seconds(throughputShare*s), closedWindow)
	if err := g.quiesce(30 * time.Second); err != nil {
		return nil, fmt.Errorf("throughput phase: %w", err)
	}
	run.closedAllocB, _, run.closedCPUNs = mem.since()
	run.closedReadings = g.accepted.Load() - acc0
	return run, nil
}

// costWindow is the window process CPU and allocation per reading are
// taken over. Disturbances only ever raise a window's cost: another
// tenant of the machine slowing memory-bound work (which raises its CPU
// time), or a stretch of scheduling in which readings are handed on in
// smaller batches (more per-batch work and allocation, ~13 against
// ~18 B per reading on storm). The reported
// figures are therefore the lower quartile of a phase's windows, which a
// change in the cost of every reading moves and a disturbance of up to
// three quarters of the windows does not.
const costWindow = windowWidth / 2

// perReading returns the lower quartile of per-window costs per reading,
// or the whole phase's total ÷ readings when it spans fewer than four
// windows.
func perReading(windows []float64, total, readings uint64) float64 {
	if len(windows) < 4 {
		return float64(total) / float64(max(readings, 1))
	}
	s := slices.Clone(windows)
	slices.Sort(s)
	return s[len(s)/4]
}

// closedWindow bounds readings in flight in the closed loop, well under
// the default ingestion and forwarding budgets, so saturation shows as
// throughput, not drops.
const closedWindow = 8192

// reportEvents fills the metrics every event workload shares.
func (g *eventRig) reportEvents(o options, rep *report, run *eventRun) {
	ph := run.untraced
	rep.extra("delivery_p50_ms", ph.delivery.P50()/1e6, "ms")
	rep.extra("actuation_p50_ms", ph.actuation.P50()/1e6, "ms")
	dTail, dLevel := ph.delivery.Tail()
	aTail, aLevel := ph.actuation.Tail()
	rep.extra("throughput_eps", run.throughput, "1/s")
	rep.extra(fmt.Sprintf("delivery_p99_ms (p%g)", dLevel*100), dTail/1e6, "ms")
	rep.extra(fmt.Sprintf("actuation_p99_ms (p%g)", aLevel*100), aTail/1e6, "ms")
	closedCPU := float64(run.closedCPUNs) / float64(max(run.closedReadings, 1))
	closedAlloc := float64(run.closedAllocB) / float64(max(run.closedReadings, 1))
	latencyCPU := perReading(ph.cpuPerReading, uint64(run.cpuNs), run.readings)
	latencyAlloc := perReading(ph.allocPerReading, run.allocB, run.readings)
	if g.saturationCosts {
		rep.setE2E("alloc_b_per_reading", closedAlloc, "B")
		rep.extra("cpu_us_per_reading", closedCPU/1e3, "us")
	} else {
		rep.setE2E("alloc_b_per_reading", latencyAlloc, "B")
		rep.extra("cpu_us_per_reading", latencyCPU/1e3, "us")
	}
	fmt.Printf("per reading over the latency phase: %.3fus CPU, %.1fB allocated; lower quartiles of %d windows of %v: %.3fus, %.1fB\n",
		float64(run.cpuNs)/1e3/float64(max(run.readings, 1)), float64(run.allocB)/float64(max(run.readings, 1)),
		len(ph.cpuPerReading), time.Duration(costWindow), latencyCPU/1e3, latencyAlloc)
	fmt.Printf("per reading in the closed loop: %.3fus CPU, %.1fB allocated\n", closedCPU/1e3, closedAlloc)
	fmt.Printf("delivery   %s\n", ph.delivery.Summary(1e6, "ms"))
	fmt.Printf("actuation  %s\n", ph.actuation.Summary(1e6, "ms"))
	fmt.Printf("generator lateness %s\n", ph.late.Summary(1e6, "ms"))
	fmt.Printf("throughput %.0f events/s (closed loop, %d in flight)\n", run.throughput, closedWindow)
	fmt.Printf("sustained_eps %.0f 1/s (ladder of %.2fs steps %s; %d readings dropped past the knee)\n",
		run.sustained, ladderShare*o.seconds/ladderMaxStep, run.ladderNote, run.ladderDrops)
	rep.extra("sustained_eps", run.sustained, "1/s")
	if late, _ := ph.late.Tail(); late > maxLateNs {
		rep.fail("generator lateness p99 %.2fms over %.0fms: the run is invalid", late/1e6, maxLateNs/1e6)
	}
	// Oracles: exact accounting, every reading delivered under the ID of
	// the sensor that pushed it, one actuation per publication on the
	// triggering lot's panel, no component errors. Actuation trails
	// delivery, so wait for the controller chain to drain first. Drops
	// while the ladder climbs past the knee are what ends it; every other
	// drop is a failed reading.
	deadline := time.Now().Add(30 * time.Second)
	for g.actuations.Load()+g.handlerErrs.Load() < g.published.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	drops := g.drops()
	failed := drops - run.ladderDrops
	rep.attempted = g.accepted.Load()
	rep.failed += failed
	rep.extra("drop_ratio", float64(failed)/float64(max(g.accepted.Load(), 1)), "ratio")
	fmt.Printf("readings accepted %d, delivered %d, dropped %d (%d on the ladder; drop_ratio %.3g), published %d, actuated %d\n",
		g.accepted.Load(), g.delivered.Load(), drops, run.ladderDrops, float64(failed)/float64(max(g.accepted.Load(), 1)),
		g.published.Load(), g.actuations.Load())
	fmt.Printf("push subscriptions made while the sensor already had a sink: %d\n", g.overlaps.Load())
	if g.delivered.Load()+drops != g.accepted.Load() {
		rep.fail("delivered %d + dropped %d != accepted %d", g.delivered.Load(), drops, g.accepted.Load())
	}
	if want := g.delivered.Load() / publishEvery; g.published.Load() != want {
		rep.fail("published %d times, want %d", g.published.Load(), want)
	}
	if g.actuations.Load() != g.published.Load() {
		rep.fail("actuated %d panels for %d publications", g.actuations.Load(), g.published.Load())
	}
	if n := g.mismatches.Load(); n != 0 {
		rep.fail("%d actuations hit another lot's panel", n)
	}
	if n := g.misattributed.Load(); n != 0 {
		rep.fail("%d readings delivered under another sensor's ID", n)
	}
	if n := g.handlerErrs.Load(); n != 0 {
		rep.fail("%d component errors", n)
	}

	if !o.trace {
		return
	}
	tp := run.traced
	gLate, _ := tp.late.Tail()
	rep.setLayer("gen.late_p99_ms", gLate/1e6, "ms")
	rep.setLayer("context.handler_us_p50", tp.handler.Quantile(0.5)/1e3, "us")
	pubTail, _ := tp.publish.Tail()
	actTail, _ := tp.actuate.Tail()
	rep.setLayer("runtime.controller.publish_us_p50", tp.publish.Quantile(0.5)/1e3, "us")
	rep.setLayer("runtime.controller.publish_us_p99", pubTail/1e3, "us")
	rep.setLayer("runtime.controller.actuate_us_p50", tp.actuate.Quantile(0.5)/1e3, "us")
	rep.setLayer("runtime.controller.actuate_us_p99", actTail/1e3, "us")
	rep.setLayer("runtime.ingest.backlog_max", float64(run.backlogMax), "events")
	rep.setLayer("go.gc_cycles_per_mreading", float64(run.gcs)/float64(max(run.readings, 1))*1e6, "count")
	pushTail, _ := tp.push.Tail()
	rep.extra("runtime.ingest.push_ns_p50", tp.push.Quantile(0.5), "ns")
	rep.extra("runtime.ingest.push_ns_p99", pushTail, "ns")
	trTail, _ := tp.transit.Tail()
	rep.extra(g.linkName+".transit_us_p50", tp.transit.Quantile(0.5)/1e3, "us")
	rep.extra(g.linkName+".transit_us_p99", trTail/1e3, "us")
	printOverhead(map[string][2]*Windowed{
		"delivery":  {ph.delivery, tp.delivery},
		"actuation": {ph.actuation, tp.actuation},
	})
}

// maxLateNs is the generator lateness p99 beyond which a run is invalid:
// the pacer, not the system, would be setting the latencies.
const maxLateNs = latencyLimit

// printOverhead prints traced minus untraced latencies.
func printOverhead(pairs map[string][2]*Windowed) {
	names := make([]string, 0, len(pairs))
	for n := range pairs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u, t := pairs[n][0], pairs[n][1]
		ut, _ := u.Tail()
		tt, _ := t.Tail()
		fmt.Printf("tracing overhead %s: p50 %+.4fms, tail %+.4fms (traced minus untraced)\n",
			n, (t.P50()-u.P50())/1e6, (tt-ut)/1e6)
	}
}

// printSelfTimes prints per-layer self time from the recorded spans and
// writes the spans out.
func printSelfTimes(o options, tr *Tracer) {
	spans := tr.Spans()
	st := SelfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("self time per layer over %d spans (%d not kept):\n", len(spans), tr.dropped.Load())
	for _, n := range names {
		lt := st[n]
		fmt.Printf("  %-32s spans %7d  self %10.3fms  mean self %9.2fus\n",
			n, lt.Spans, float64(lt.SelfNs)/1e6, float64(lt.SelfNs)/1e3/float64(max(lt.Spans, 1)))
	}
	path := fmt.Sprintf("%s/%s-seed%d.csv", o.traceOut, o.workload, o.seed)
	if err := tr.WriteCSV(path); err != nil {
		fmt.Println("trace not written:", err)
		return
	}
	fmt.Println("spans written to", path)
}
