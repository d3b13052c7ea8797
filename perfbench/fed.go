package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/federation"
	"repro/internal/registry"
	"repro/internal/runtime"
)

// The federated-churn workload: a hub host runs the event design's
// contexts and panels; an edge host owns fedSensors push sensors, with
// persistence, and forwards their readings to the hub over loopback TCP.
// While the generator offers readings at fedRate, a control loop churns 1%
// of the edge fleet per second (unbind + rebind) and syncs the hub's
// mirrors once a second.

const (
	// fedRate is the offered rate, readings/s: the reference rate of the
	// specification, well under the sustained rate the ladder finds.
	fedRate = 100_000
	// fedSensors is the edge fleet. A sync after churn rescans and
	// resends the changed kind whole, ~0.5 s per sync at 50k sensors on
	// two cores, which left the data plane measuring the sync alone.
	fedSensors = 10_000
	// Churn runs in small steps so each stays inside the registry
	// watchers' buffers; the hub syncs its mirrors every syncSteps steps.
	// A sync after churn rescans and resends the changed kind whole
	// (~0.4 s at 50k on two cores), so it runs once a second, not every
	// 100 ms. Steps that fall due during a sync are skipped.
	churnStep  = 20 * time.Millisecond
	churnPerOp = fedSensors / 100 / int(time.Second/churnStep)
	syncSteps  = int(time.Second / churnStep)
)

// edgeDesign is the edge node's design: the device taxonomy only.
const edgeDesign = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}
`

// connStats counts what one federation link writes to its TCP connection.
type connStats struct {
	bytes, writes atomic.Uint64
	timed         atomic.Bool
	writeNs       Histogram
}

// dial is a transport.Dialer wrapping the connection in a counter.
func (s *connStats) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, s: s}, nil
}

type countedConn struct {
	net.Conn
	s *connStats
}

func (c *countedConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	if c.s.timed.Load() {
		c.s.writeNs.Record(int64(time.Since(t0)))
	}
	c.s.bytes.Add(uint64(n))
	c.s.writes.Add(1)
	return n, err
}

// fedRig is the federated system under test and its churn state.
type fedRig struct {
	g                 *eventRig
	hub, edge         *runtime.Host
	hubNode, edgeNode *federation.Node
	hubApp            *runtime.Runtime
	e2h, h2e          *connStats
	dir               string

	bindHist, unbindHist, syncHist Histogram
	regWrites                      atomic.Uint64
	mirrorMismatch                 atomic.Uint64
	syncErrs                       atomic.Uint64
	syncs                          atomic.Uint64

	// Churn state, owned by the control loop.
	rng        *rand.Rand
	live, dead []int
	seen       []bool // scratch of mirrorsMatch, by sensor index
}

func (f *fedRig) setup(n int, panels []*lotPanel, onErr func(runtime.ComponentError)) (setupTimes, error) {
	var st setupTimes
	dir := filepath.Join(f.dir, fmt.Sprintf("edge-%d", n))
	t0 := time.Now()
	var err error
	if f.hub, err = runtime.NewHost(runtime.SubstrateConfig{}); err != nil {
		return st, err
	}
	if _, err = f.hub.DeploySource("hub", eventDesign, f.g.eventAppConfig(onErr)); err != nil {
		return st, err
	}
	f.hubApp, _ = f.hub.App("hub")
	if f.hubNode, err = federation.New(federation.Config{Name: "hub", Endpoint: f.hub}); err != nil {
		return st, err
	}
	if f.edge, err = runtime.NewHost(runtime.SubstrateConfig{PersistDir: dir}); err != nil {
		return st, err
	}
	if _, err = f.edge.DeploySource("edge", edgeDesign, runtime.AppConfig{OnError: onErr}); err != nil {
		return st, err
	}
	f.edgeNode, err = federation.New(federation.Config{Name: "edge", Endpoint: f.edge,
		Exports: []federation.Export{{Kind: "PresenceSensor", Source: "presence"}}})
	if err != nil {
		return st, err
	}
	if err = f.edgeNode.AddPeer(federation.PeerConfig{Name: "hub", Addr: f.hubNode.Addr(),
		ForwardEvents: true, Dialer: f.e2h.dial}); err != nil {
		return st, err
	}
	if err = f.hubNode.AddPeer(federation.PeerConfig{Name: "edge", Addr: f.edgeNode.Addr(),
		Import: []string{"PresenceSensor"}, Dialer: f.h2e.dial}); err != nil {
		return st, err
	}
	t1 := time.Now()
	for _, s := range f.g.sensors {
		b0 := time.Now()
		if err := f.edge.BindDevice(s); err != nil {
			return st, err
		}
		f.bindHist.Record(int64(time.Since(b0)))
	}
	for _, p := range panels {
		if err := f.hub.BindDevice(p); err != nil {
			return st, err
		}
	}
	t2 := time.Now()
	if err := f.g.waitAttached(fedSensors, 60*time.Second); err != nil {
		return st, err
	}
	t3 := time.Now()
	f.live = f.live[:0]
	for i := 0; i < fedSensors; i++ {
		f.live = append(f.live, i)
	}
	f.dead = f.dead[:0]
	if err := f.hubNode.SyncPeers(); err != nil {
		return st, fmt.Errorf("first sync: %w", err)
	}
	t4 := time.Now()
	if !f.mirrorsMatch() {
		return st, fmt.Errorf("first sync: %d mirrors, want the %d edge sensors",
			f.hubNode.MirrorCount("edge", "PresenceSensor"), fedSensors)
	}
	return setupTimes{deploy: t1.Sub(t0), bind: t2.Sub(t1), attach: t3.Sub(t2), firstSync: t4.Sub(t3)}, nil
}

// close tears the system down, nodes before hosts.
func (f *fedRig) close() {
	if f.edgeNode != nil {
		f.edgeNode.Close()
	}
	if f.hubNode != nil {
		f.hubNode.Close()
	}
	if f.edge != nil {
		f.edge.Close()
	}
	if f.hub != nil {
		f.hub.Close()
	}
	f.edgeNode, f.hubNode, f.edge, f.hub = nil, nil, nil, nil
}

// churnOnce unbinds churnPerOp live sensors and rebinds up to churnPerOp
// dead ones, and waits until the edge runtime has detached the sink of
// every churned-out sensor and attached one to every rebound sensor. A
// sensor pushes only while attached, so no reading is accepted from a
// churned-out sensor; the hub's handler checks that every reading it
// receives carries the ID of the sensor that pushed it.
func (f *fedRig) churnOnce() error {
	var out, in []int
	for k := 0; k < churnPerOp && len(f.live) > 0; k++ {
		j := f.rng.Intn(len(f.live))
		idx := f.live[j]
		f.live[j] = f.live[len(f.live)-1]
		f.live = f.live[:len(f.live)-1]
		t0 := time.Now()
		if err := f.edge.UnbindDevice(f.g.sensors[idx].id); err != nil {
			return err
		}
		f.unbindHist.Record(int64(time.Since(t0)))
		f.regWrites.Add(1)
		out = append(out, idx)
	}
	for k := 0; k < churnPerOp && len(f.dead) > 0; k++ {
		idx := f.dead[0]
		f.dead = f.dead[1:]
		t0 := time.Now()
		if err := f.edge.BindDevice(f.g.sensors[idx]); err != nil {
			return err
		}
		f.bindHist.Record(int64(time.Since(t0)))
		f.regWrites.Add(1)
		in = append(in, idx)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !f.settled(out, in) {
		if time.Now().After(deadline) {
			return errors.New("churned sensors did not settle within 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	f.live = append(f.live, in...)
	f.dead = append(f.dead, out...)
	return nil
}

// syncOnce syncs the hub's mirrors and checks them against the edge's
// live fleet.
func (f *fedRig) syncOnce() {
	t0 := time.Now()
	if err := f.hubNode.SyncPeers(); err != nil {
		f.syncErrs.Add(1)
	}
	f.syncHist.Record(int64(time.Since(t0)))
	f.syncs.Add(1)
	if !f.mirrorsMatch() {
		f.mirrorMismatch.Add(1)
	}
}

// mirrorsMatch reports whether the PresenceSensors in the hub's registry
// are exactly the edge's live fleet, by ID, each a mirror owned by the
// edge.
func (f *fedRig) mirrorsMatch() bool {
	if f.seen == nil {
		f.seen = make([]bool, len(f.g.sensors))
	}
	clear(f.seen)
	ok, n := true, 0
	f.hub.Registry().Scan(registry.Query{Kind: "PresenceSensor"}, func(e registry.Entity) bool {
		id := string(e.ID)
		idx := sensorIndex(id)
		if e.Origin != "edge" || idx < 0 || idx >= len(f.seen) || sensorID(idx) != id || f.seen[idx] {
			ok = false
			return false
		}
		f.seen[idx] = true
		n++
		return true
	})
	if !ok || n != len(f.live) {
		return false
	}
	for _, idx := range f.live {
		if !f.seen[idx] {
			return false
		}
	}
	return true
}

func (f *fedRig) settled(out, in []int) bool {
	for _, idx := range out {
		if f.g.sensors[idx].sinks.Load() != nil {
			return false
		}
	}
	for _, idx := range in {
		if f.g.sensors[idx].sinks.Load() == nil {
			return false
		}
	}
	return true
}

// churnLoop runs a churn step every churnStep and a sync every syncSteps
// steps until stop closes.
func (f *fedRig) churnLoop(stop <-chan struct{}, errc chan<- error) {
	t := time.NewTicker(churnStep)
	defer t.Stop()
	for n := 1; ; n++ {
		select {
		case <-stop:
			errc <- nil
			return
		case <-t.C:
			if err := f.churnOnce(); err != nil {
				errc <- err
				return
			}
			if n%syncSteps == 0 {
				f.syncOnce()
			}
		}
	}
}

// walBytes sums the edge's WAL segment sizes.
func (f *fedRig) walBytes() int64 {
	var total int64
	_ = filepath.Walk(f.dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(info.Name(), "wal-") {
			total += info.Size()
		}
		return nil
	})
	return total
}

// fedSnap is the counter state the per-layer metrics are deltas of.
type fedSnap struct {
	hub              runtime.Stats
	edge, hubFed     federation.Stats
	e2hBytes, e2hWr  uint64
	wal              int64
	regWrites, syncs uint64
}

func (f *fedRig) snap() fedSnap {
	return fedSnap{
		hub: f.hubApp.Stats(), edge: f.edgeNode.Stats(), hubFed: f.hubNode.Stats(),
		e2hBytes: f.e2h.bytes.Load(), e2hWr: f.e2h.writes.Load(),
		wal: f.walBytes(), regWrites: f.regWrites.Load(), syncs: f.syncs.Load(),
	}
}

func runFederated(o options, rep *report) error {
	g := newEventRig(o.seed, fedSensors, "federation", windowWidth/4)
	// At 100k readings/s a run's allocation per reading ranged 330–440 B
	// with the forwarding batch sizes; in the closed loop, 96–110 B.
	g.saturationCosts = true
	if o.trace {
		g.tracer = newTracer(traceSpanLimit)
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "fed-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f := &fedRig{g: g, e2h: &connStats{}, h2e: &connStats{}, dir: dir, rng: rand.New(rand.NewSource(o.seed))}
	panels := g.newPanels()
	onErr := func(e runtime.ComponentError) { countError(&g.handlerErrs, e) }
	n := 0
	err = repeatSetup(rep, 7, func() (setupTimes, error) {
		n++
		return f.setup(n, panels, onErr)
	}, func() error {
		f.close()
		return g.waitAttached(0, 30*time.Second)
	})
	defer f.close()
	if err != nil {
		return err
	}
	reportBinds(rep, &f.bindHist)
	g.drops = func() uint64 {
		h := f.hubApp.Stats()
		e := f.edgeNode.Stats()
		return h.IngestBudgetDrops + h.IngestDeadlineDrops + h.IngestDrainDrops + h.FederationEventDrops +
			f.hub.Stats().UnroutedFederationDrops + e.ForwardBudgetDrops + e.ForwardSendDrops + e.ForwardUnrouted
	}

	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.churnLoop(stop, errc)
	}()
	var before, after fedSnap
	run, err := g.measureEvents(o, fedRate, func(start bool) {
		if start {
			f.e2h.timed.Store(o.trace)
			before = f.snap()
		} else {
			after = f.snap()
			f.e2h.timed.Store(false)
		}
	})
	close(stop)
	wg.Wait()
	if cerr := <-errc; cerr != nil && err == nil {
		err = fmt.Errorf("churn: %w", cerr)
	}
	if err != nil {
		return err
	}
	// A final sync with the fleet at rest must leave the hub mirroring
	// exactly the edge's live fleet.
	if err := f.hubNode.SyncPeers(); err != nil {
		rep.fail("final sync: %v", err)
	}
	if !f.mirrorsMatch() {
		rep.fail("hub mirrors %d sensors, edge has %d live, or the IDs differ",
			f.hubNode.MirrorCount("edge", "PresenceSensor"), len(f.live))
	}
	g.reportEvents(o, rep, run)
	fmt.Printf("churn: %d syncs (%d failed), %d registry writes, %d mirror mismatches\n",
		f.syncs.Load(), f.syncErrs.Load(), f.regWrites.Load(), f.mirrorMismatch.Load())
	fmt.Printf("sync %s\n", f.syncHist.Summary(1e6, "ms"))
	if n := f.mirrorMismatch.Load(); n != 0 {
		rep.fail("%d syncs left hub mirrors different from the edge's live fleet", n)
	}
	if n := f.syncErrs.Load(); n != 0 {
		rep.fail("%d mirror syncs failed", n)
	}
	if o.trace {
		h := statsDelta(before.hub, after.hub)
		fwd := after.edge.EventsForwarded - before.edge.EventsForwarded
		batches := after.edge.EventBatchesSent - before.edge.EventBatchesSent
		mirrorChanges := (after.hubFed.MirrorsAdded + after.hubFed.MirrorsUpdated + after.hubFed.MirrorsRemoved) -
			(before.hubFed.MirrorsAdded + before.hubFed.MirrorsUpdated + before.hubFed.MirrorsRemoved)
		rep.setLayer("runtime.ingest.events_per_batch", ratio(h.IngestEvents, h.IngestBatches), "events")
		rep.setLayer("runtime.ingest.drops", float64(h.IngestBudgetDrops+h.IngestDeadlineDrops+h.IngestDrainDrops), "count")
		rep.setLayer("runtime.pool_misses", float64(h.PoolMisses), "count")
		rep.setLayer("runtime.tracker_reconciles", float64(h.TrackerReconciles), "count")
		rep.setLayer("federation.events_per_batch", ratio(fwd, batches), "events")
		rep.setLayer("runtime.remote_ingest.events_per_batch", ratio(h.FederationEventsIn, h.FederationEventBatchesIn), "events")
		rep.setLayer("federation.forward_drops", float64((after.edge.ForwardBudgetDrops+after.edge.ForwardSendDrops)-
			(before.edge.ForwardBudgetDrops+before.edge.ForwardSendDrops)), "count")
		rep.setLayer("federation.mirror_changes_per_sync", ratio(mirrorChanges, after.syncs-before.syncs), "count")
		rep.setLayer("transport.bytes_per_event", ratio(after.e2hBytes-before.e2hBytes, fwd), "B")
		rep.setLayer("transport.writes_per_batch", ratio(after.e2hWr-before.e2hWr, batches), "count")
		rep.setLayer("transport.codec_fallbacks", float64(after.edge.CodecFallbacks-before.edge.CodecFallbacks), "count")
		rep.setLayer("persist.wal_bytes_per_write", ratio(uint64(max(after.wal-before.wal, 0)), after.regWrites-before.regWrites), "B")
		unbindTail, _ := f.unbindHist.Tail()
		writeTail, _ := f.e2h.writeNs.Tail()
		rep.extra("federation.sync_ms_p50", f.syncHist.Quantile(0.5)/1e6, "ms")
		rep.extra("federation.sync_ms_max", f.syncHist.Quantile(1)/1e6, "ms")
		rep.extra("registry.unbind_us_p99", unbindTail/1e3, "us")
		rep.extra("transport.write_us_p99", writeTail/1e3, "us")
		printSelfTimes(o, g.tracer)
	}
	return nil
}
