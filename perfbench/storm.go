package main

import (
	"fmt"
	"time"

	"repro/internal/runtime"
)

// stormRate is the storm workload's reference offered rate, events/s.
const stormRate = 100_000

// runStorm is the storm workload: 50k push sensors in 100 lots on one
// runtime.Host with the real clock, an open loop at stormRate with sensors
// drawn from a seeded Zipf, and every 64th delivery actuating its lot's
// panel.
func runStorm(o options, rep *report) error {
	g := newEventRig(o.seed, fleetSize, "runtime.dispatch", windowWidth/4)
	if o.trace {
		g.tracer = newTracer(traceSpanLimit)
	}
	panels := g.newPanels()
	var host *runtime.Host
	bindHist := &Histogram{}
	onErr := func(e runtime.ComponentError) { countError(&g.handlerErrs, e) }

	setup := func() (setupTimes, error) {
		var st setupTimes
		t0 := time.Now()
		h, err := runtime.NewHost(runtime.SubstrateConfig{})
		if err != nil {
			return st, err
		}
		host = h
		if _, err := h.DeploySource("storm", eventDesign, g.eventAppConfig(onErr)); err != nil {
			return st, err
		}
		t1 := time.Now()
		for _, s := range g.sensors {
			b0 := time.Now()
			if err := h.BindDevice(s); err != nil {
				return st, err
			}
			bindHist.Record(int64(time.Since(b0)))
		}
		for _, p := range panels {
			if err := h.BindDevice(p); err != nil {
				return st, err
			}
		}
		t2 := time.Now()
		if err := g.waitAttached(fleetSize, 60*time.Second); err != nil {
			return st, err
		}
		t3 := time.Now()
		return setupTimes{deploy: t1.Sub(t0), bind: t2.Sub(t1), attach: t3.Sub(t2)}, nil
	}
	teardown := func() error {
		host.Close()
		return g.waitAttached(0, 30*time.Second)
	}
	err := repeatSetup(rep, 5, setup, teardown)
	if host != nil {
		defer host.Close()
	}
	if err != nil {
		return err
	}
	reportBinds(rep, bindHist)
	rt, ok := host.App("storm")
	if !ok {
		return fmt.Errorf("storm app not deployed")
	}
	g.drops = func() uint64 {
		s := rt.Stats()
		return s.IngestBudgetDrops + s.IngestDeadlineDrops + s.IngestDrainDrops
	}

	var before, after runtime.Stats
	run, err := g.measureEvents(o, stormRate, func(start bool) {
		if start {
			before = rt.Stats()
		} else {
			after = rt.Stats()
		}
	})
	if err != nil {
		return err
	}
	g.reportEvents(o, rep, run)
	d := statsDelta(before, after)
	fmt.Printf("ingest: %d events in %d batches, %d pool misses, %d tracker reconciles\n",
		d.IngestEvents, d.IngestBatches, d.PoolMisses, d.TrackerReconciles)
	if o.trace {
		rep.setLayer("runtime.ingest.events_per_batch", ratio(d.IngestEvents, d.IngestBatches), "events")
		rep.setLayer("runtime.ingest.drops", float64(d.IngestBudgetDrops+d.IngestDeadlineDrops+d.IngestDrainDrops), "count")
		rep.setLayer("runtime.pool_misses", float64(d.PoolMisses), "count")
		rep.setLayer("runtime.tracker_reconciles", float64(d.TrackerReconciles), "count")
		printSelfTimes(o, g.tracer)
	}
	return nil
}

// traceSpanLimit caps the spans a traced run keeps in memory.
const traceSpanLimit = 1 << 20

// reportBinds reports registry bind latencies measured during set-up.
func reportBinds(rep *report, h *Histogram) {
	tail, _ := h.Tail()
	rep.setLayer("registry.bind_us_p50", h.Quantile(0.5)/1e3, "us")
	rep.setLayer("registry.bind_us_p99", tail/1e3, "us")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// statsDelta returns b − a for the runtime counters the benchmark reads.
func statsDelta(a, b runtime.Stats) runtime.Stats {
	return runtime.Stats{
		PollSnapshotRebuilds:     b.PollSnapshotRebuilds - a.PollSnapshotRebuilds,
		IngestEvents:             b.IngestEvents - a.IngestEvents,
		IngestBatches:            b.IngestBatches - a.IngestBatches,
		IngestBudgetDrops:        b.IngestBudgetDrops - a.IngestBudgetDrops,
		IngestDeadlineDrops:      b.IngestDeadlineDrops - a.IngestDeadlineDrops,
		IngestDrainDrops:         b.IngestDrainDrops - a.IngestDrainDrops,
		TrackerReconciles:        b.TrackerReconciles - a.TrackerReconciles,
		FederationEventsIn:       b.FederationEventsIn - a.FederationEventsIn,
		FederationEventBatchesIn: b.FederationEventBatchesIn - a.FederationEventBatchesIn,
		GroupsDirty:              b.GroupsDirty - a.GroupsDirty,
		GroupsTotal:              b.GroupsTotal - a.GroupsTotal,
		PoolMisses:               b.PoolMisses - a.PoolMisses,
	}
}
