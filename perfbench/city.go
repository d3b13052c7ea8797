package main

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/dsl/designs"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// The city workload runs the paper's Figure 8 parking design
// (designs.Parking, unmodified) over 5k devsim.Swarm sensors on a virtual
// clock. Each round flips 1% of the fleet (DeltaRound), then advances the
// clock 10 minutes; the round ends when every CityEntrancePanel has been
// actuated, and only then does the next round start (closed loop).

const (
	cityRound = 10 * time.Minute
	// citySensors is the city fleet. AverageOccupancy's `every <24 hr>`
	// window buffers every raw reading of 144 rounds: at 50k sensors that
	// is 1.3 GB of live heap (2.9 GB RSS), at 10k ~1.4 GB RSS with round
	// latencies that swung 16% between runs; 5k keeps RSS under 1 GB.
	citySensors = 5000
	// cityWindow holds ~1000 rounds.
	cityWindow     = 2 * windowWidth
	cityChange     = 0.01
	cityPanelsCity = 3 // CityEntranceEnum values
	// citySetups is how many set-ups setup_s is the median of: one takes
	// ~45 ms, so a few cannot outvote a scheduling hiccup.
	citySetups = 15
)

var cityLots = []string{"A22", "B16", "D6", "E31", "F12"}

// cityRig is the shared state of one city run.
type cityRig struct {
	clk   clock
	vc    *simclock.Virtual
	epoch time.Time // virtual time of round 0
	swarm *devsim.Swarm

	round      atomic.Int64 // round in flight
	roundStart atomic.Int64 // benchmark-clock time of its Advance
	truth      atomic.Pointer[map[string]int]

	cityActs    sync.Map // round → *atomic.Int32 of CityEntrancePanel actuations
	lotActs     atomic.Uint64
	cityTotal   atomic.Uint64
	messages    atomic.Uint64
	mismatches  atomic.Uint64
	handlerErrs atomic.Uint64

	// Per-round measurements of the window being measured.
	measuring  atomic.Bool
	delivery   *Windowed // Advance → ParkingAvailability entry
	actuation  *Windowed // Advance → last CityEntrancePanel actuation
	traced     atomic.Bool
	tracer     *Tracer
	handler    Histogram
	publish    Histogram
	actuate    Histogram
	queryNs    Histogram
	pollStart  Histogram
	pollGather Histogram
	fold       Histogram

	queries    atomic.Uint64
	firstQuery atomic.Int64
	lastQuery  atomic.Int64
	maps       atomic.Uint64
	combines   atomic.Uint64
	reduces    atomic.Uint64
	paRet      atomic.Int64 // ParkingAvailability return time of the round
	done       chan int64   // rounds whose city panels are all actuated
}

// roundOf maps a delivery's virtual time to its round.
func (c *cityRig) roundOf(t time.Time) int64 { return int64(t.Sub(c.epoch) / cityRound) }

// availability is one ParkingAvailability record.
type availability struct {
	Lot   string
	Count int
}

// cityUpdate is the update argument of both panel kinds.
type cityUpdate struct {
	Round  int64
	Lot    string // ParkingEntrancePanel target; "" for city panels
	Count  int
	Status string
	Invoke int64
}

// parkingAvailability implements ParkingAvailability as the paper's
// Figure 10: Map marks vacant spaces, Reduce counts them; Combine and
// Uncombine make the count incremental.
type parkingAvailability struct{ c *cityRig }

func (h parkingAvailability) Map(lot string, v any, emit func(string, any)) {
	h.c.maps.Add(1)
	if !v.(bool) {
		emit(lot, true)
	}
}

func (h parkingAvailability) Reduce(lot string, vs []any, emit func(string, any)) {
	h.c.reduces.Add(1)
	emit(lot, len(vs))
}

func (h parkingAvailability) Combine(_ string, a, b any) any {
	h.c.combines.Add(1)
	return a.(int) + b.(int)
}

func (h parkingAvailability) Uncombine(_ string, a, v any) any {
	h.c.combines.Add(1)
	return a.(int) - v.(int)
}

func (h parkingAvailability) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	c := h.c
	entry := c.clk.now()
	round := c.roundOf(call.Time)
	if c.measuring.Load() {
		start := c.roundStart.Load()
		c.delivery.Record(start, entry-start)
		if c.traced.Load() {
			lq := c.lastQuery.Load()
			c.fold.Record(entry - lq)
			c.tracer.Add(Span{ID: round, Name: "mapreduce", Parent: "round", Start: lq, End: entry})
		}
	}
	out := make([]availability, 0, len(cityLots))
	truth := *c.truth.Load()
	for _, lot := range cityLots {
		n, _ := call.GroupedReduced[lot].(int)
		if n != truth[lot] {
			c.mismatches.Add(1)
		}
		out = append(out, availability{lot, n})
	}
	ret := c.clk.now()
	c.paRet.Store(ret)
	if c.traced.Load() && c.measuring.Load() {
		c.handler.Record(ret - entry)
		c.tracer.Add(Span{ID: round, Name: "context.handler", Parent: "round", Start: entry, End: ret})
	}
	return out, true, nil
}

// usagePattern implements ParkingUsagePattern: hourly occupancy per lot,
// classified and served on demand.
type usagePattern struct {
	mu      sync.Mutex
	history map[string]float64
}

func (u *usagePattern) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for lot, vals := range call.Grouped {
		occupied := 0
		for _, v := range vals {
			if b, _ := v.(bool); b {
				occupied++
			}
		}
		if len(vals) > 0 {
			u.history[lot] = float64(occupied) / float64(len(vals))
		}
	}
	return nil, false, nil
}

func (u *usagePattern) OnRequired(*runtime.ContextCall) (any, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(map[string]string, len(u.history))
	for lot, occ := range u.history {
		switch {
		case occ > 0.75:
			out[lot] = "HIGH"
		case occ > 0.4:
			out[lot] = "MODERATE"
		default:
			out[lot] = "LOW"
		}
	}
	return out, nil
}

// averageOccupancy implements AverageOccupancy: the daily mean occupancy
// per lot over the `every <24 hr>` window.
type averageOccupancy struct{}

func (averageOccupancy) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	out := make(map[string]float64, len(call.Grouped))
	for lot, vals := range call.Grouped {
		occupied := 0
		for _, v := range vals {
			if b, _ := v.(bool); b {
				occupied++
			}
		}
		if len(vals) > 0 {
			out[lot] = float64(occupied) / float64(len(vals))
		}
	}
	return out, true, nil
}

// parkingSuggestion implements ParkingSuggestion: lots ordered by
// vacancy, skipping lots whose usage pattern is HIGH.
type parkingSuggestion struct{}

func (parkingSuggestion) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	avail, ok := call.Value.([]availability)
	if !ok {
		return nil, false, fmt.Errorf("perfbench: ParkingAvailability published %T", call.Value)
	}
	pattern, err := call.QueryContext("ParkingUsagePattern")
	if err != nil {
		return nil, false, err
	}
	levels, _ := pattern.(map[string]string)
	sorted := append([]availability(nil), avail...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Count > sorted[j].Count })
	out := make([]string, 0, len(sorted))
	for _, a := range sorted {
		if levels[a.Lot] != "HIGH" {
			out = append(out, a.Lot)
		}
	}
	return out, true, nil
}

// entrancePanels implements ParkingEntrancePanelController: each lot's
// panel shows its availability.
type entrancePanels struct{ c *cityRig }

func (h entrancePanels) OnContext(call *runtime.ControllerCall) error {
	c := h.c
	entry := c.clk.now()
	round := c.roundOf(call.Time)
	if c.traced.Load() && c.measuring.Load() {
		ret := c.paRet.Load()
		c.publish.Record(entry - ret)
		c.tracer.Add(Span{ID: round, Name: "runtime.controller.publish", Parent: "round", Start: ret, End: entry})
	}
	avail, ok := call.Value.([]availability)
	if !ok {
		return fmt.Errorf("perfbench: ParkingAvailability published %T", call.Value)
	}
	for _, a := range avail {
		panels, err := call.DevicesWhere("ParkingEntrancePanel", registry.Attributes{"location": a.Lot})
		if err != nil {
			return err
		}
		for _, p := range panels {
			u := cityUpdate{Round: round, Lot: a.Lot, Count: a.Count, Status: fmt.Sprintf("%d free", a.Count), Invoke: c.clk.now()}
			if err := p.Invoke("update", u); err != nil {
				return err
			}
		}
	}
	return nil
}

// cityPanels implements CityEntrancePanelController: every city entrance
// shows the suggestion, through one InvokeBatch.
type cityPanels struct{ c *cityRig }

func (h cityPanels) OnContext(call *runtime.ControllerCall) error {
	c := h.c
	lots, ok := call.Value.([]string)
	if !ok {
		return fmt.Errorf("perfbench: ParkingSuggestion published %T", call.Value)
	}
	panels, err := call.Devices("CityEntrancePanel")
	if err != nil {
		return err
	}
	status := "full"
	if len(lots) > 0 {
		status = "go to " + lots[0]
	}
	u := cityUpdate{Round: c.roundOf(call.Time), Status: status, Invoke: c.clk.now()}
	if _, errs := call.InvokeBatch(panels, "update", u); len(errs) > 0 {
		return errors.Join(errs...)
	}
	return nil
}

// messenger implements MessengerController.
type messenger struct{}

func (messenger) OnContext(call *runtime.ControllerCall) error {
	ms, err := call.Devices("Messenger")
	if err != nil {
		return err
	}
	for _, m := range ms {
		if err := m.Invoke("sendMessage", fmt.Sprintf("daily occupancy %v", call.Value)); err != nil {
			return err
		}
	}
	return nil
}

// cityActuator is the benchmark-owned panel and messenger driver.
type cityActuator struct {
	id, kind string
	attrs    registry.Attributes
	c        *cityRig
}

func (a *cityActuator) ID() string                      { return a.id }
func (a *cityActuator) Kind() string                    { return a.kind }
func (a *cityActuator) Kinds() []string                 { return []string{a.kind} }
func (a *cityActuator) Attributes() registry.Attributes { return a.attrs.Clone() }
func (a *cityActuator) Query(source string) (any, error) {
	return nil, fmt.Errorf("%w: %s", device.ErrUnknownSource, source)
}
func (a *cityActuator) Subscribe(source string) (device.Subscription, error) {
	return nil, fmt.Errorf("%w: %s", device.ErrUnknownSource, source)
}

func (a *cityActuator) Invoke(action string, args ...any) error {
	c := a.c
	entry := c.clk.now()
	if a.kind == "Messenger" {
		c.messages.Add(1)
		return nil
	}
	u, ok := args[0].(cityUpdate)
	if action != "update" || !ok {
		return fmt.Errorf("%w: %s", device.ErrUnknownAction, action)
	}
	if c.traced.Load() && c.measuring.Load() {
		c.actuate.Record(entry - u.Invoke)
		c.tracer.Add(Span{ID: u.Round, Name: "runtime.controller.actuate", Parent: "round", Start: u.Invoke, End: entry})
	}
	if a.kind == "ParkingEntrancePanel" {
		if u.Lot != a.attrs["location"] {
			c.mismatches.Add(1)
		}
		c.lotActs.Add(1)
		return nil
	}
	c.cityTotal.Add(1)
	v, _ := c.cityActs.LoadOrStore(u.Round, new(atomic.Int32))
	if v.(*atomic.Int32).Add(1) == cityPanelsCity {
		if c.measuring.Load() && u.Round == c.round.Load() {
			start := c.roundStart.Load()
			c.actuation.Record(start, entry-start)
		}
		c.cityActs.Delete(u.Round)
		c.done <- u.Round
	}
	return nil
}

// tracedSensor wraps a swarm sensor so the poller's pre-resolved queries
// can be counted and timed.
type tracedSensor struct {
	*devsim.SwarmSensor
	c *cityRig
}

// Querier wraps the swarm's snapshot querier.
func (s tracedSensor) Querier(source string) (device.QueryFunc, error) {
	q, err := s.SwarmSensor.Querier(source)
	if err != nil {
		return nil, err
	}
	c := s.c
	return func() (any, error) {
		if !c.traced.Load() {
			return q()
		}
		// Poll workers share these counters: touch the clock and the
		// first/last stamps on one query in traceEvery only, or the
		// tracing itself would dominate the round.
		n := c.queries.Add(1)
		if n%traceEvery != 1 {
			return q()
		}
		t0 := c.clk.now()
		if c.firstQuery.Load() == 0 {
			c.firstQuery.CompareAndSwap(0, t0)
		}
		v, err := q()
		t1 := c.clk.now()
		c.queryNs.Record(t1 - t0)
		c.lastQuery.Store(t1)
		return v, err
	}, nil
}

func runCity(o options, rep *report) error {
	c := &cityRig{clk: newClock(), done: make(chan int64, 16)}
	c.epoch = time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC)
	c.vc = simclock.NewVirtual(c.epoch)
	c.swarm = devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: citySensors, Lots: cityLots, GroupAttr: "parkingLot", Seed: o.seed,
	}, c.vc)
	if o.trace {
		c.tracer = newTracer(traceSpanLimit)
		c.tracer.on.Store(true)
	}
	var drivers []device.Driver
	for _, s := range c.swarm.Sensors() {
		if o.trace {
			drivers = append(drivers, tracedSensor{s, c})
		} else {
			drivers = append(drivers, s)
		}
	}
	var actuators []device.Driver
	for _, lot := range cityLots {
		actuators = append(actuators, &cityActuator{id: "entrance-" + lot, kind: "ParkingEntrancePanel",
			attrs: registry.Attributes{"location": lot}, c: c})
	}
	for _, e := range []string{"NORTH_EAST_14Y", "SOUTH_EAST_1A", "WEST_9B"} {
		actuators = append(actuators, &cityActuator{id: "city-" + e, kind: "CityEntrancePanel",
			attrs: registry.Attributes{"location": e}, c: c})
	}
	actuators = append(actuators, &cityActuator{id: "messenger", kind: "Messenger", attrs: registry.Attributes{}, c: c})

	var host *runtime.Host
	bindHist := &Histogram{}
	setup := func() (setupTimes, error) {
		var st setupTimes
		t0 := time.Now()
		h, err := runtime.NewHost(runtime.SubstrateConfig{Clock: c.vc})
		if err != nil {
			return st, err
		}
		host = h
		_, err = h.DeploySource("city", designs.Parking, runtime.AppConfig{
			Contexts: map[string]runtime.ContextHandler{
				"ParkingAvailability": parkingAvailability{c},
				"ParkingUsagePattern": &usagePattern{history: map[string]float64{}},
				"AverageOccupancy":    averageOccupancy{},
				"ParkingSuggestion":   parkingSuggestion{},
			},
			Controllers: map[string]runtime.ControllerHandler{
				"ParkingEntrancePanelController": entrancePanels{c},
				"CityEntrancePanelController":    cityPanels{c},
				"MessengerController":            messenger{},
			},
			OnError: func(e runtime.ComponentError) { countError(&c.handlerErrs, e) },
		})
		if err != nil {
			return st, err
		}
		t1 := time.Now()
		for _, d := range drivers {
			b0 := time.Now()
			if err := h.BindDevice(d); err != nil {
				return st, err
			}
			bindHist.Record(int64(time.Since(b0)))
		}
		for _, a := range actuators {
			if err := h.BindDevice(a); err != nil {
				return st, err
			}
		}
		t2 := time.Now()
		// A poller attaches to the fleet on its first round: the target
		// snapshot is built and every querier resolved.
		if _, err := c.runRound(); err != nil {
			return st, fmt.Errorf("first round: %w", err)
		}
		t3 := time.Now()
		return setupTimes{deploy: t1.Sub(t0), bind: t2.Sub(t1), attach: t3.Sub(t2)}, nil
	}
	teardown := func() error { host.Close(); return nil }
	err := repeatSetup(rep, citySetups, setup, teardown)
	if host != nil {
		defer host.Close()
	}
	if err != nil {
		return err
	}
	reportBinds(rep, bindHist)
	rt, ok := host.App("city")
	if !ok {
		return errors.New("city app not deployed")
	}

	// Warm-up rounds, then the measured window (split when tracing).
	goruntime.GC()
	warmEnd := time.Now().Add(seconds(min(1, 0.1*o.seconds)))
	for time.Now().Before(warmEnd) {
		if _, err := c.runRound(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	measure := 0.9 * o.seconds
	if o.trace {
		measure /= 2
	}
	rounds, samples, late, allocB, gcs, cpuNs, d, err := c.measureRounds(rt, measure)
	if err != nil {
		return err
	}
	untraced := [2]*Windowed{c.delivery, c.actuation}
	rep.extra("delivery_p50_ms", c.delivery.P50()/1e6, "ms")
	rep.extra("actuation_p50_ms", c.actuation.P50()/1e6, "ms")
	var perWindow []float64
	for _, h := range c.actuation.filled() {
		perWindow = append(perWindow, float64(h.Count()*citySensors)/(float64(cityWindow)/1e9))
	}
	rep.extra("throughput_eps", median(perWindow), "1/s")
	dTail, dLevel := c.delivery.Tail()
	aTail, aLevel := c.actuation.Tail()
	rep.extra(fmt.Sprintf("delivery_p99_ms (p%g)", dLevel*100), dTail/1e6, "ms")
	rep.extra("round_p50_ms", c.actuation.P50()/1e6, "ms")
	rep.extra(fmt.Sprintf("round_p99_ms (p%g)", aLevel*100), aTail/1e6, "ms")
	rep.extra("drop_ratio", 0, "ratio") // a missed round fails the run
	rep.setE2E("alloc_b_per_reading", float64(allocB)/float64(max(samples, 1)), "B")
	rep.extra("cpu_us_per_reading", float64(cpuNs)/1e3/float64(max(samples, 1)), "us")
	fmt.Printf("rounds %d, sensor readings %d\n", rounds, samples)
	fmt.Printf("delivery (Advance → ParkingAvailability) %s\n", c.delivery.Summary(1e6, "ms"))
	fmt.Printf("round    (Advance → city panels, round_p50_ms/round_p99_ms) %s\n", c.actuation.Summary(1e6, "ms"))
	fmt.Printf("generator gap between rounds %s\n", late.Summary(1e6, "ms"))

	if o.trace {
		c.queries.Store(0)
		c.maps.Store(0)
		c.combines.Store(0)
		c.reduces.Store(0)
		c.traced.Store(true)
		rounds, _, late, _, _, _, d, err = c.measureRounds(rt, measure)
		if err != nil {
			return err
		}
		c.traced.Store(false)
		perRound := func(n uint64) float64 { return float64(n) / float64(max(rounds, 1)) }
		lTail, _ := late.Tail()
		rep.setLayer("gen.late_p99_ms", lTail/1e6, "ms")
		rep.setLayer("context.handler_us_p50", c.handler.Quantile(0.5)/1e3, "us")
		pTail, _ := c.publish.Tail()
		rep.setLayer("runtime.controller.publish_us_p50", c.publish.Quantile(0.5)/1e3, "us")
		rep.setLayer("runtime.controller.publish_us_p99", pTail/1e3, "us")
		acTail, _ := c.actuate.Tail()
		rep.setLayer("runtime.controller.actuate_us_p50", c.actuate.Quantile(0.5)/1e3, "us")
		rep.setLayer("runtime.controller.actuate_us_p99", acTail/1e3, "us")
		rep.setLayer("runtime.poll.queries_per_round", perRound(c.queries.Load()), "count")
		rep.setLayer("runtime.poll.snapshot_rebuilds", float64(d.PollSnapshotRebuilds), "count")
		rep.setLayer("runtime.poll.changed_ratio", ratio(c.maps.Load(), c.queries.Load()), "ratio")
		rep.setLayer("mapreduce.map_calls_per_round", perRound(c.maps.Load()), "count")
		rep.setLayer("mapreduce.combine_calls_per_round", perRound(c.combines.Load()), "count")
		rep.setLayer("mapreduce.reduce_calls_per_round", perRound(c.reduces.Load()), "count")
		rep.setLayer("mapreduce.dirty_group_ratio", ratio(d.GroupsDirty, d.GroupsTotal), "ratio")
		rep.setLayer("runtime.tracker_reconciles", float64(d.TrackerReconciles), "count")
		rep.setLayer("runtime.pool_misses", float64(d.PoolMisses), "count")
		rep.setLayer("go.gc_cycles_per_mreading", float64(gcs)/float64(max(samples, 1))*1e6, "count")
		rep.extra("runtime.poll.start_ms", c.pollStart.Quantile(0.5)/1e6, "ms")
		rep.extra("runtime.poll.gather_ms", c.pollGather.Quantile(0.5)/1e6, "ms")
		rep.extra("runtime.poll.query_ns_p50", c.queryNs.Quantile(0.5), "ns")
		rep.extra("mapreduce.fold_ms", c.fold.Quantile(0.5)/1e6, "ms")
		printOverhead(map[string][2]*Windowed{
			"delivery":  {untraced[0], c.delivery},
			"actuation": {untraced[1], c.actuation},
		})
		printSelfTimes(o, c.tracer)
	}

	// Oracles: every round's published availability matched the swarm's
	// ground truth, every entrance panel was actuated every round, no
	// component failed. A round ends at its city-panel actuation, so the
	// last round's entrance panels may still be in flight: wait for them.
	total := uint64(c.round.Load())
	want := total * uint64(len(cityLots))
	deadline := time.Now().Add(5 * time.Second)
	for c.lotActs.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep.attempted = total
	fmt.Printf("rounds %d: %d entrance-panel and %d city-panel actuations, %d messages, %d mismatches, %d errors\n",
		total, c.lotActs.Load(), c.cityTotal.Load(), c.messages.Load(), c.mismatches.Load(), c.handlerErrs.Load())
	if n := c.mismatches.Load(); n != 0 {
		rep.fail("%d availability or panel mismatches against ground truth", n)
	}
	if c.lotActs.Load() != want {
		rep.fail("%d entrance-panel actuations over %d rounds, want %d", c.lotActs.Load(), total, want)
	}
	if n := c.handlerErrs.Load(); n != 0 {
		rep.fail("%d component errors", n)
	}
	return nil
}

// measureRounds runs rounds for the given seconds into fresh windows and
// returns rounds, sensor readings, the generator's gaps, bytes allocated,
// GC cycles, CPU ns and the runtime counter deltas.
func (c *cityRig) measureRounds(rt *runtime.Runtime, secs float64) (int, uint64, *Histogram, uint64, uint32, int64, runtime.Stats, error) {
	goruntime.GC()
	start := c.clk.now()
	end := start + int64(seconds(secs))
	c.delivery = newWindowed(start, end, cityWindow)
	c.actuation = newWindowed(start, end, cityWindow)
	c.measuring.Store(true)
	defer c.measuring.Store(false)
	before := rt.Stats()
	mem := markMem()
	rounds, samples, gap, _, err := c.runFor(seconds(secs))
	allocB, gcs, cpuNs := mem.since()
	return rounds, samples, gap, allocB, gcs, cpuNs, statsDelta(before, rt.Stats()), err
}

// runRound runs one closed-loop round: flip 1% of the fleet, record the
// ground truth, advance the clock, and wait for the round's city-panel
// actuation. It returns the polled samples (one per sensor).
func (c *cityRig) runRound() (uint64, error) {
	c.swarm.DeltaRound(cityChange)
	truth := c.swarm.VacantPerLot()
	c.truth.Store(&truth)
	round := c.round.Add(1)
	c.firstQuery.Store(0)
	t0 := c.clk.now()
	c.roundStart.Store(t0)
	c.vc.AdvanceTo(c.epoch.Add(time.Duration(round) * cityRound))
	select {
	case r := <-c.done:
		if r != round {
			return 0, fmt.Errorf("round %d finished while %d was in flight", r, round)
		}
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("round %d: city panels not actuated within 30s", round)
	}
	if c.traced.Load() && c.measuring.Load() {
		fq, lq, end := c.firstQuery.Load(), c.lastQuery.Load(), c.clk.now()
		c.pollStart.Record(fq - t0)
		c.pollGather.Record(lq - fq)
		c.tracer.Add(Span{ID: round, Name: "runtime.poll.start", Parent: "round", Start: t0, End: fq})
		c.tracer.Add(Span{ID: round, Name: "runtime.poll", Parent: "round", Start: fq, End: lq})
		c.tracer.Add(Span{ID: round, Name: "round", Start: t0, End: end})
	}
	return uint64(citySensors), nil
}

// runFor runs rounds back to back for d and returns rounds, polled
// samples, the generator's gap between a round's end and the next
// Advance, and the wall time taken.
func (c *cityRig) runFor(d time.Duration) (rounds int, samples uint64, gap *Histogram, wall time.Duration, err error) {
	gap = &Histogram{}
	start := time.Now()
	end := start.Add(d)
	var last int64
	for time.Now().Before(end) {
		n, err := c.runRound()
		if err != nil {
			return rounds, samples, gap, time.Since(start), err
		}
		if last != 0 {
			gap.Record(c.roundStart.Load() - last)
		}
		last = c.clk.now()
		rounds++
		samples += n
	}
	return rounds, samples, gap, time.Since(start), nil
}
