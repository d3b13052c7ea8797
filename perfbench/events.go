package main

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/runtime"
)

// This file holds what the two event workloads (storm, federated-churn)
// share: the design, the benchmark-owned push sensors, panels, context and
// controller, and the open- and closed-loop generators.

// eventDesign is the sense→compute→actuate loop of the event workloads:
// every presence reading reaches LotTrigger, which publishes on every
// publishEvery-th delivery; PanelUpdate then updates that lot's panel.
const eventDesign = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

device LotPanel {
	attribute lot as String;
	action update(trigger as Trigger);
}

context LotTrigger as Trigger {
	when provided presence from PresenceSensor
	maybe publish;
}

controller PanelUpdate {
	when provided LotTrigger
	do update on LotPanel;
}

structure Trigger {
	lot as String;
	due as Integer;
}
`

const (
	fleetSize    = 50000
	lotCount     = 100
	publishEvery = 64
	// traceEvery samples one reading in traceEvery for push and transit
	// spans; every publishing reading is traced too.
	traceEvery = 64
	zipfS      = 1.1
	zipfRing   = 1 << 20
)

// sinkRef is one attached sink; cancel finds it by identity.
type sinkRef struct{ s device.Sink }

// pushSensor is the benchmark-owned presence sensor: a device.Driver that
// delivers readings only through device.PushSubscriber, to every sink
// attached, like devsim's swarm sensors. The generator pushes through it;
// it reports whether a sink was attached.
type pushSensor struct {
	id, lot string
	mu      sync.Mutex // serializes attach and detach
	sinks   atomic.Pointer[[]*sinkRef]
	// attached counts fleet-wide sensors with a sink; overlaps counts
	// subscriptions made while the sensor already had a sink.
	attached, overlaps *atomic.Int64
}

func (p *pushSensor) ID() string      { return p.id }
func (p *pushSensor) Kind() string    { return "PresenceSensor" }
func (p *pushSensor) Kinds() []string { return []string{"PresenceSensor"} }
func (p *pushSensor) Attributes() registry.Attributes {
	return registry.Attributes{"lot": p.lot}
}
func (p *pushSensor) Query(string) (any, error) { return false, nil }
func (p *pushSensor) Subscribe(string) (device.Subscription, error) {
	return nil, errors.New("perfbench: sensors deliver by push only")
}
func (p *pushSensor) Invoke(action string, _ ...any) error {
	return fmt.Errorf("%w: %s", device.ErrUnknownAction, action)
}

// SubscribePush implements device.PushSubscriber.
func (p *pushSensor) SubscribePush(source string, sink device.Sink) (func(), error) {
	if source != "presence" {
		return nil, fmt.Errorf("%w: %s", device.ErrUnknownSource, source)
	}
	ref := &sinkRef{sink}
	p.mu.Lock()
	var next []*sinkRef
	if cur := p.sinks.Load(); cur != nil {
		next = append(next, *cur...)
		p.overlaps.Add(1)
	} else {
		p.attached.Add(1)
	}
	next = append(next, ref)
	p.sinks.Store(&next)
	p.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			defer p.mu.Unlock()
			var kept []*sinkRef
			for _, r := range *p.sinks.Load() {
				if r != ref {
					kept = append(kept, r)
				}
			}
			if len(kept) == 0 {
				p.sinks.Store(nil)
				p.attached.Add(-1)
			} else {
				p.sinks.Store(&kept)
			}
		})
	}, nil
}

// push hands r to every attached sink and reports whether one was
// attached.
func (p *pushSensor) push(r device.Reading) bool {
	refs := p.sinks.Load()
	if refs == nil {
		return false
	}
	for _, ref := range *refs {
		ref.s.Push(r)
	}
	return true
}

// sensorIndex recovers a sensor's index from its ID ("ps-00042" → 42),
// or -1 from an ID of another form.
func sensorIndex(id string) int {
	num, ok := strings.CutPrefix(id, "ps-")
	n, err := strconv.Atoi(num)
	if !ok || err != nil {
		return -1
	}
	return n
}

func sensorID(i int) string { return fmt.Sprintf("ps-%05d", i) }
func lotOf(i int) string    { return fmt.Sprintf("lot-%03d", i%lotCount) }

// trigger is the LotTrigger value and the update argument. Ret and Invoke
// carry the handler-return and proxy-invoke times for the traced layers.
type trigger struct {
	Lot    string
	Due    int64
	Ret    int64
	Invoke int64
}

// phase is one measured window of generated load. Deliveries and
// actuations of readings due inside [start, end) land in its histograms.
type phase struct {
	start, end int64
	delivery   *Windowed // due → context handler entry
	actuation  *Windowed // due → panel driver Invoke
	late       Histogram // due → push start (generator lateness)
	traced     bool
	// Traced layers.
	push, transit, handler, publish, actuate Histogram
	// pacer is the phase's schedule; it maps a reading's due time back to
	// its sequence number. sensorOf[seq] is the sensor the generator
	// pushed reading seq through, checked against the delivered reading.
	pacer    Pacer
	sensorOf []atomic.Int32
	// cpuPerReading and allocPerReading are the process CPU ns and heap
	// bytes allocated per reading of each whole costWindow of the phase.
	cpuPerReading, allocPerReading []float64
	// pushAt holds push start/end of sampled readings, indexed by
	// sequence/traceEvery.
	pushAt []pushStamp
}

// newPhase schedules rate readings per second for d, starting 1 ms after
// it returns. Its per-reading state is allocated first, then the heap is
// collected, so whether a GC cycle falls inside a phase does not depend on
// what ran before it.
func (g *eventRig) newPhase(d time.Duration, rate int64, traced bool, deliveryWindow int64) *phase {
	n := newPacer(0, rate).DueBy(int64(d) - 1)
	ph := &phase{traced: traced, sensorOf: make([]atomic.Int32, n)}
	if traced {
		ph.pushAt = make([]pushStamp, n/traceEvery+1)
	}
	goruntime.GC()
	ph.start = g.clk.now() + int64(time.Millisecond)
	ph.end = ph.start + int64(d)
	ph.pacer = newPacer(ph.start, rate)
	ph.delivery = newWindowed(ph.start, ph.end, deliveryWindow)
	ph.actuation = newWindowed(ph.start, ph.end, windowWidth)
	return ph
}

// pushStamp is the start and end of one sampled Sink.Push call. The
// handler that reads it may run behind a TCP hop, which the race detector
// cannot see as synchronization, so the fields are atomic.
type pushStamp struct{ start, end atomic.Int64 }

// eventRig is the shared state of one event workload run.
type eventRig struct {
	clk      clock
	sensors  []*pushSensor
	attached atomic.Int64
	overlaps atomic.Int64
	ring     []int32 // Zipf-drawn sensor indices, cycled by the generator
	cursor   int
	tracer   *Tracer
	// linkName is the span name of the hop between Sink.Push and the
	// context handler: runtime.dispatch on one host, federation across.
	linkName string
	// deliveryWindow is the window width of the delivery statistics and
	// of the closed-loop throughput: short, so that a scheduling stall
	// spoils only the windows it hits.
	deliveryWindow int64
	// saturationCosts reports CPU and allocation per reading from the
	// closed-loop phase instead of the latency phase: set where a
	// reading's cost at the reference rate follows the batch sizes that
	// scheduling happens to form, while at saturation batches are full.
	saturationCosts bool

	phases atomic.Pointer[[]*phase]

	// The closed loop parks on gate while the in-flight window is full;
	// the context handler signals it once in flight falls to gateLow.
	gate      chan struct{}
	gateArmed atomic.Bool
	gateLow   atomic.Uint64

	accepted   atomic.Uint64
	delivered  atomic.Uint64
	published  atomic.Uint64
	actuations atomic.Uint64
	mismatches atomic.Uint64 // panel actuated for another lot
	// misattributed counts readings delivered with another sensor's ID
	// than the one the generator pushed them through.
	misattributed atomic.Uint64
	handlerErrs   atomic.Uint64
	// drops returns the cumulative dropped/refused readings of the system
	// under test.
	drops func() uint64
}

func newEventRig(seed int64, fleet int, linkName string, deliveryWindow int64) *eventRig {
	g := &eventRig{clk: newClock(), linkName: linkName, deliveryWindow: deliveryWindow,
		gate: make(chan struct{}, 1)}
	g.sensors = make([]*pushSensor, fleet)
	for i := range g.sensors {
		g.sensors[i] = &pushSensor{id: sensorID(i), lot: lotOf(i), attached: &g.attached, overlaps: &g.overlaps}
	}
	// Zipf ranks map through a seeded permutation, so the hottest sensors
	// sit at arbitrary IDs (and arbitrary ingestion shards).
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(fleet)
	z := rand.NewZipf(r, zipfS, 1, uint64(fleet-1))
	g.ring = make([]int32, zipfRing)
	for i := range g.ring {
		g.ring[i] = int32(perm[z.Uint64()])
	}
	empty := []*phase{}
	g.phases.Store(&empty)
	return g
}

// addPhase publishes a new phase to the handlers.
func (g *eventRig) addPhase(ph *phase) {
	old := *g.phases.Load()
	next := append(append([]*phase(nil), old...), ph)
	g.phases.Store(&next)
}

// phaseOf finds the phase a reading due at t belongs to.
func (g *eventRig) phaseOf(due int64) *phase {
	ps := *g.phases.Load()
	for i := len(ps) - 1; i >= 0; i-- {
		if due >= ps[i].start && due < ps[i].end {
			return ps[i]
		}
	}
	return nil
}

// accounted is delivered + dropped.
func (g *eventRig) accounted() uint64 { return g.delivered.Load() + g.drops() }

// quiesce waits until every accepted reading is delivered or dropped and
// every publication has reached its panel (or failed), so no phase starts
// while the previous one's actuations are still queued.
func (g *eventRig) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		acc, want := g.accounted(), g.accepted.Load()
		if acc == want && g.actuations.Load()+g.handlerErrs.Load() >= g.published.Load() {
			return nil
		}
		if acc > want {
			return fmt.Errorf("accounted %d readings, accepted %d: duplicate delivery", acc, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stalled at %d of %d accepted readings accounted, %d of %d publications actuated",
				acc, want, g.actuations.Load(), g.published.Load())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// pushNext pushes one reading from the next sensor in Zipf order, skipping
// sensors churned out of the fleet (no sink attached), and counts it
// accepted. The sensor is noted in sensorOf (when non-nil) before the
// push, for the handler to check.
func (g *eventRig) pushNext(value bool, at time.Time, sensorOf *atomic.Int32) {
	for {
		idx := g.ring[g.cursor]
		s := g.sensors[idx]
		g.cursor++
		if g.cursor == len(g.ring) {
			g.cursor = 0
		}
		if sensorOf != nil {
			sensorOf.Store(idx)
		}
		if s.push(device.Reading{DeviceID: s.id, Source: "presence", Value: value, Time: at}) {
			g.accepted.Add(1)
			return
		}
	}
}

// openLoop offers the phase's schedule, each reading stamped with its
// scheduled time, and returns how many readings were accepted. It wakes
// once per tick and pushes every reading due by then. It samples the
// backlog (accepted − delivered − dropped) about once a millisecond into
// backlog when non-nil.
func (g *eventRig) openLoop(ph *phase, backlog *[]int64) uint64 {
	total := int64(len(ph.sensorOf))
	g.addPhase(ph)
	defer lockGenerator()()
	var accepted uint64
	nextSample := ph.start
	nextWin, winCPU, winAlloc, winAcc := ph.start+costWindow, cpuTimeNs(), heapAllocBytes(), uint64(0)
	for i := int64(0); i < total; {
		now := g.clk.now()
		due := min(ph.pacer.DueBy(now), total)
		for ; i < due; i++ {
			at := ph.pacer.Due(i)
			t0 := g.clk.now()
			ph.late.Record(t0 - at)
			g.pushNext(i&1 == 0, g.clk.stamp(at), &ph.sensorOf[i])
			accepted++
			if ph.traced && i%traceEvery == 0 {
				st := &ph.pushAt[i/traceEvery]
				st.start.Store(t0)
				st.end.Store(g.clk.now())
			}
		}
		if backlog != nil && now >= nextSample {
			*backlog = append(*backlog, int64(g.accepted.Load()-g.accounted()))
			nextSample = now + int64(time.Millisecond)
		}
		if now >= nextWin {
			cpu, alloc, n := cpuTimeNs(), heapAllocBytes(), float64(max(accepted-winAcc, 1))
			ph.cpuPerReading = append(ph.cpuPerReading, float64(cpu-winCPU)/n)
			ph.allocPerReading = append(ph.allocPerReading, float64(alloc-winAlloc)/n)
			nextWin, winCPU, winAlloc, winAcc = nextWin+costWindow, cpu, alloc, accepted
		}
		if i < total {
			g.clk.waitUntil(max(ph.pacer.Due(i), now+int64(tick)))
		}
	}
	return accepted
}

// closedLoop pushes as fast as a bounded in-flight window allows for d and
// returns the median over deliveryWindow-wide windows of readings
// accounted (delivered or dropped) per second.
func (g *eventRig) closedLoop(d time.Duration, window uint64) float64 {
	start := g.clk.now()
	end := start + int64(d)
	nextWin := start + g.deliveryWindow
	base := g.accounted()
	drops := g.drops()
	var rates []float64
	for i := 0; ; i++ {
		if i%64 == 0 {
			now := g.clk.now()
			if now >= nextWin {
				acc := g.accounted()
				rates = append(rates, float64(acc-base)/(float64(now-nextWin+g.deliveryWindow)/1e9))
				base = acc
				nextWin = now + g.deliveryWindow
			}
			if now >= end {
				break
			}
			drops = g.drops()
		}
		if g.accepted.Load()-(g.delivered.Load()+drops) >= window {
			g.waitGate(window, drops)
			continue
		}
		g.pushNext(i&1 == 0, g.clk.stamp(g.clk.now()), nil)
	}
	return median(rates)
}

// waitGate parks the closed-loop generator until the context handler has
// drained the in-flight window to half, or a millisecond passes (drops
// never reach the handler).
func (g *eventRig) waitGate(window, drops uint64) {
	g.gateLow.Store(window / 2)
	g.gateArmed.Store(true)
	if g.accepted.Load()-(g.delivered.Load()+drops) >= window {
		select {
		case <-g.gate:
		case <-time.After(time.Millisecond):
		}
	}
	g.gateArmed.Store(false)
	select {
	case <-g.gate:
	default:
	}
}

// lotContext is the benchmark-owned LotTrigger implementation.
type lotContext struct{ g *eventRig }

func (c lotContext) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	g := c.g
	entry := g.clk.now()
	r := call.Reading
	due := g.clk.dueOf(r.Time)
	n := g.delivered.Add(1)
	if g.gateArmed.Load() && g.accepted.Load()-n <= g.gateLow.Load() && g.gateArmed.CompareAndSwap(true, false) {
		select {
		case g.gate <- struct{}{}:
		default:
		}
	}
	idx := sensorIndex(r.DeviceID)
	ph := g.phaseOf(due)
	var seq int64
	if ph != nil {
		ph.delivery.Record(due, entry-due)
		seq = ph.pacer.SeqOf(due)
		if seq >= int64(len(ph.sensorOf)) || ph.sensorOf[seq].Load() != int32(idx) {
			g.misattributed.Add(1)
		}
	}
	publish := n%publishEvery == 0
	traced := ph != nil && ph.traced && g.tracer.Enabled()
	if traced {
		if seq%traceEvery == 0 && seq/traceEvery < int64(len(ph.pushAt)) {
			st := &ph.pushAt[seq/traceEvery]
			if start, end := st.start.Load(), st.end.Load(); end != 0 {
				ph.push.Record(end - start)
				ph.transit.Record(entry - end)
				g.tracer.Add(Span{ID: due, Name: "gen", Parent: "reading", Start: due, End: start})
				g.tracer.Add(Span{ID: due, Name: "runtime.ingest", Parent: "reading", Start: start, End: end})
				g.tracer.Add(Span{ID: due, Name: g.linkName, Parent: "reading", Start: end, End: entry})
				if !publish {
					ret := g.clk.now()
					ph.handler.Record(ret - entry)
					g.tracer.Add(Span{ID: due, Name: "context.handler", Parent: "reading", Start: entry, End: ret})
					g.tracer.Add(Span{ID: due, Name: "reading", Start: due, End: ret})
				}
			}
		}
	}
	if !publish {
		return nil, false, nil
	}
	g.published.Add(1)
	tr := trigger{Lot: lotOf(idx), Due: due}
	tr.Ret = g.clk.now()
	if traced {
		ph.handler.Record(tr.Ret - entry)
		g.tracer.Add(Span{ID: due, Name: "context.handler", Parent: "reading", Start: entry, End: tr.Ret})
	}
	return tr, true, nil
}

// panelUpdate is the benchmark-owned PanelUpdate controller.
type panelUpdate struct{ g *eventRig }

func (c panelUpdate) OnContext(call *runtime.ControllerCall) error {
	g := c.g
	entry := g.clk.now()
	tr, ok := call.Value.(trigger)
	if !ok {
		return fmt.Errorf("perfbench: LotTrigger published %T", call.Value)
	}
	panels, err := call.DevicesWhere("LotPanel", registry.Attributes{"lot": tr.Lot})
	if err != nil {
		return err
	}
	if len(panels) != 1 {
		return fmt.Errorf("perfbench: %d panels for %s, want 1", len(panels), tr.Lot)
	}
	tr.Invoke = g.clk.now()
	err = panels[0].Invoke("update", tr)
	if ph := g.phaseOf(tr.Due); ph != nil && ph.traced && g.tracer.Enabled() {
		end := g.clk.now()
		ph.publish.Record(entry - tr.Ret)
		g.tracer.Add(Span{ID: tr.Due, Name: "runtime.controller.publish", Parent: "reading", Start: tr.Ret, End: entry})
		g.tracer.Add(Span{ID: tr.Due, Name: "controller.handler", Parent: "reading", Start: entry, End: end})
		g.tracer.Add(Span{ID: tr.Due, Name: "reading", Start: tr.Due, End: end})
	}
	return err
}

// lotPanel is the benchmark-owned LotPanel actuator.
type lotPanel struct {
	id, lot string
	g       *eventRig
}

func (p *lotPanel) ID() string      { return p.id }
func (p *lotPanel) Kind() string    { return "LotPanel" }
func (p *lotPanel) Kinds() []string { return []string{"LotPanel"} }
func (p *lotPanel) Attributes() registry.Attributes {
	return registry.Attributes{"lot": p.lot}
}
func (p *lotPanel) Query(source string) (any, error) {
	return nil, fmt.Errorf("%w: %s", device.ErrUnknownSource, source)
}
func (p *lotPanel) Subscribe(source string) (device.Subscription, error) {
	return nil, fmt.Errorf("%w: %s", device.ErrUnknownSource, source)
}

func (p *lotPanel) Invoke(action string, args ...any) error {
	g := p.g
	entry := g.clk.now()
	if action != "update" || len(args) != 1 {
		return fmt.Errorf("%w: %s", device.ErrUnknownAction, action)
	}
	tr, ok := args[0].(trigger)
	if !ok {
		return fmt.Errorf("perfbench: update with %T", args[0])
	}
	if tr.Lot != p.lot {
		g.mismatches.Add(1)
	}
	g.actuations.Add(1)
	if ph := g.phaseOf(tr.Due); ph != nil {
		ph.actuation.Record(tr.Due, entry-tr.Due)
		if ph.traced && g.tracer.Enabled() {
			ph.actuate.Record(entry - tr.Invoke)
			g.tracer.Add(Span{ID: tr.Due, Name: "runtime.controller.actuate", Parent: "controller.handler", Start: tr.Invoke, End: entry})
		}
	}
	return nil
}

// countError counts a component error into n and prints the first few,
// for the failure message.
func countError(n *atomic.Uint64, e runtime.ComponentError) {
	if n.Add(1) <= 5 {
		fmt.Println("component error:", e)
	}
}

// newPanels builds one panel per lot.
func (g *eventRig) newPanels() []*lotPanel {
	ps := make([]*lotPanel, lotCount)
	for i := range ps {
		ps[i] = &lotPanel{id: fmt.Sprintf("panel-%03d", i), lot: lotOf(i), g: g}
	}
	return ps
}

// waitAttached waits until n sensors have a sink attached.
func (g *eventRig) waitAttached(n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for g.attached.Load() != n {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d sensors attached after %v", g.attached.Load(), n, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// eventAppConfig wires the benchmark-owned handlers into an app.
func (g *eventRig) eventAppConfig(onErr func(runtime.ComponentError)) runtime.AppConfig {
	return runtime.AppConfig{
		Contexts:    map[string]runtime.ContextHandler{"LotTrigger": lotContext{g}},
		Controllers: map[string]runtime.ControllerHandler{"PanelUpdate": panelUpdate{g}},
		OnError:     onErr,
	}
}
