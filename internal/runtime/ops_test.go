package runtime

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simclock"
)

// White-box tests of the operations plane (ops.go): fleet_stats assembly,
// the drain-under-load exactness property, live budget retuning, and the
// Prometheus endpoint end to end. All run under -race in CI.

// TestHostFleetStats checks the one-call snapshot carries every section:
// host substrate counters, per-app counters sorted by ID, gauge sources,
// registered peer records, per-kind registry population, and budgets.
func TestHostFleetStats(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	ha, hb := &recHandler{}, &recHandler{}
	deployTenant(t, h, "b", AppConfig{Contexts: map[string]ContextHandler{"Occ_b": hb}})
	deployTenant(t, h, "a", AppConfig{Contexts: map[string]ContextHandler{"Occ_a": ha}})
	h.AddGauges("federation", func() map[string]uint64 { return map[string]uint64{"sync_rounds": 4} })

	da := bindTenantSensor(t, h, "a", "a-000", vc)
	rtA, _ := h.App("a")
	waitAttached(t, rtA, 1)
	const n = 25
	for i := 0; i < n; i++ {
		da.Emit("presence", true)
	}
	waitUntil(t, "delivery", func() bool { return ha.n.Load() == n })

	fs := h.FleetStats()
	if fs.Host.App != "host" || fs.Host.Counters["bus_published"] == 0 {
		t.Fatalf("host record missing traffic: %+v", fs.Host)
	}
	if len(fs.Apps) != 2 || fs.Apps[0].App != "a" || fs.Apps[1].App != "b" {
		t.Fatalf("apps not sorted by ID: %+v", fs.Apps)
	}
	if fs.Apps[0].Counters["ingest_events"] != n {
		t.Fatalf("app a ingest_events = %d, want %d", fs.Apps[0].Counters["ingest_events"], n)
	}
	if len(fs.Gauges) != 1 || fs.Gauges[0].Counters["sync_rounds"] != 4 {
		t.Fatalf("gauge source lost: %+v", fs.Gauges)
	}
	foundKind := false
	for _, kc := range fs.Registry {
		if kc.Kind == "Sensor_a" && kc.Count == 1 && kc.Mirrors == 0 {
			foundKind = true
		}
	}
	if !foundKind {
		t.Fatalf("registry summary missing Sensor_a: %+v", fs.Registry)
	}
	if len(fs.Budgets) != 2 || fs.Budgets[0].App != "a" || fs.Budgets[1].App != "b" {
		t.Fatalf("budgets not per-app sorted: %+v", fs.Budgets)
	}
	if fs.Budgets[0].Admitted != n {
		t.Fatalf("app a budget admitted = %d, want %d", fs.Budgets[0].Admitted, n)
	}
	if fs.Draining {
		t.Fatal("fresh host reports draining")
	}
}

// TestHostDrainUnderLoad is the drain exactness property: with emitters
// racing the drain, (1) the report is clean, (2) every admitted reading is
// delivered — none lost in a pipeline, (3) post-drain arrivals are refused
// and counted as drain drops, never admitted, so
// emitted == delivered + refused exactly.
func TestHostDrainUnderLoad(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	handlers := map[string]*recHandler{"a": {}, "b": {}}
	sensors := map[string][]*pushSensor{}
	for id, hd := range handlers {
		deployTenant(t, h, id, AppConfig{Contexts: map[string]ContextHandler{"Occ_" + id: hd}})
		for i := 0; i < 3; i++ {
			sensors[id] = append(sensors[id], bindTenantSensor(t, h, id, fmt.Sprintf("%s-%03d", id, i), vc))
		}
		rt, _ := h.App(id)
		waitAttached(t, rt, 3)
	}

	// Emitters pump until told to stop, counting exactly what they pushed.
	var emitted atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, devs := range sensors {
		for _, d := range devs {
			wg.Add(1)
			go func(d *pushSensor) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					d.Emit("presence", i%2 == 0)
					emitted.Add(1)
				}
			}(d)
		}
	}

	// Let real traffic build, then drain while the emitters race on.
	waitUntil(t, "pre-drain traffic", func() bool {
		return handlers["a"].n.Load() > 100 && handlers["b"].n.Load() > 100
	})
	rep, err := h.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("drain not clean: %+v", rep)
	}
	if !h.Draining() {
		t.Fatal("host not reporting draining state")
	}
	close(stop)
	wg.Wait()

	// No admissions after the drain: further pushes only move the drain-drop
	// counter.
	var ingestedAt [2]uint64
	for i, id := range []string{"a", "b"} {
		rt, _ := h.App(id)
		ingestedAt[i] = rt.Stats().IngestEvents
	}
	for _, devs := range sensors {
		for _, d := range devs {
			d.Emit("presence", true)
			emitted.Add(1)
		}
	}
	for i, id := range []string{"a", "b"} {
		rt, _ := h.App(id)
		st := rt.Stats()
		if st.IngestEvents != ingestedAt[i] {
			t.Fatalf("app %s admitted events after drain: %d -> %d", id, ingestedAt[i], st.IngestEvents)
		}
		if st.IngestDrainDrops == 0 {
			t.Fatalf("app %s counted no drain drops despite post-drain pushes", id)
		}
	}

	// Exactness: every emitted reading is either delivered or in exactly one
	// drop counter — backpressure (budget) before the drain, drain refusals
	// after. The two never double-count one reading.
	var delivered, drops uint64
	for id, hd := range handlers {
		rt, _ := h.App(id)
		st := rt.Stats()
		if hd.n.Load() != st.IngestEvents {
			t.Fatalf("app %s delivered %d of %d admitted — drain lost admitted readings",
				id, hd.n.Load(), st.IngestEvents)
		}
		delivered += hd.n.Load()
		drops += st.IngestBudgetDrops + st.IngestDeadlineDrops + st.IngestDrainDrops
	}
	if delivered+drops != emitted.Load() {
		t.Fatalf("accounting broken: delivered %d + refused %d != emitted %d",
			delivered, drops, emitted.Load())
	}

	// Deploy is refused while draining; a second drain is idempotent.
	if _, err := h.DeploySource("late", tenantDesign("late"), AppConfig{AutoImplement: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("deploy during drain: got %v, want ErrDraining", err)
	}
	rep2, err := h.Drain()
	if err != nil || !rep2.Clean {
		t.Fatalf("second drain: %+v, %v", rep2, err)
	}
	if !h.FleetStats().Draining {
		t.Fatal("fleet_stats does not report draining")
	}
}

// slowHandler models a consumer slower than the drain's poll interval.
type slowHandler struct{ n atomic.Uint64 }

func (h *slowHandler) OnTrigger(*ContextCall) (any, bool, error) {
	time.Sleep(10 * time.Millisecond)
	h.n.Add(1)
	return nil, false, nil
}

// TestHostDrainSettlesQueuedDeliveries queues one-reading batches behind a
// handler that takes 10 ms each: the ingestion budgets release as soon as
// each batch is on the bus, so a drain is only exact if it also waits for
// the queued deliveries. Every admitted reading must be handled when Drain
// returns.
func TestHostDrainSettlesQueuedDeliveries(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	hd := &slowHandler{}
	rt := deployTenant(t, h, "a", AppConfig{
		Contexts: map[string]ContextHandler{"Occ_a": hd},
		Ingest:   IngestConfig{Shards: 1, MaxBatch: 1},
	})
	d := bindTenantSensor(t, h, "a", "a-000", vc)
	waitAttached(t, rt, 1)
	const n = 20
	for i := 0; i < n; i++ {
		d.Emit("presence", true)
	}
	rep, err := h.Drain()
	if err != nil || !rep.Clean {
		t.Fatalf("drain: %+v, %v", rep, err)
	}
	if got, admitted := hd.n.Load(), rt.Stats().IngestEvents; got != admitted || admitted != n {
		t.Fatalf("drain returned with %d of %d admitted readings handled (emitted %d)", got, admitted, n)
	}
}

// TestHostSetAppBudget checks live retuning: a saturated tiny budget starts
// rejecting, a live capacity raise admits again without a restart, and the
// new capacity shows up in fleet_stats.
func TestHostSetAppBudget(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	gate := make(chan struct{})
	hd := &recHandler{gate: gate}
	deployTenant(t, h, "a", AppConfig{
		Contexts: map[string]ContextHandler{"Occ_a": hd},
		Ingest:   IngestConfig{Shards: 1, Budget: 2, MaxBatch: 2},
	})
	d := bindTenantSensor(t, h, "a", "a-000", vc)
	rt, _ := h.App("a")
	waitAttached(t, rt, 1)

	const n = 50
	for i := 0; i < n; i++ {
		d.Emit("presence", true)
	}
	waitUntil(t, "saturation", func() bool { return rt.Stats().IngestBudgetDrops > 0 })

	if err := h.SetAppBudget("a", 100000); err != nil {
		t.Fatal(err)
	}
	fs := h.FleetStats()
	if fs.Budgets[0].Capacity != 100000 {
		t.Fatalf("fleet_stats capacity = %d after retune, want 100000", fs.Budgets[0].Capacity)
	}
	droppedBefore := rt.Stats().IngestBudgetDrops
	for i := 0; i < n; i++ {
		d.Emit("presence", true)
	}
	close(gate)
	waitUntil(t, "post-retune delivery", func() bool {
		st := rt.Stats()
		return hd.n.Load() == st.IngestEvents && st.IngestEvents+st.IngestBudgetDrops == 2*n
	})
	if rt.Stats().IngestBudgetDrops != droppedBefore {
		t.Fatalf("budget dropped again after raising capacity: %d -> %d",
			droppedBefore, rt.Stats().IngestBudgetDrops)
	}

	if err := h.SetAppBudget("ghost", 10); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("set budget on unknown app: got %v, want ErrUnknownApp", err)
	}
}

// TestRuntimeDrainSingleTenant checks the single-tenant Drain/FleetStats
// surface: scope defaults to "default", drain closes admission and counts
// refusals.
func TestRuntimeDrainSingleTenant(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	m := mustLoadDesign(t, tenantDesign("solo"))
	hd := &recHandler{}
	rt := New(m, WithClock(vc))
	if err := rt.ImplementContext("Occ_solo", hd); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	d := newPushSensor("s-000", "Sensor_solo", map[string]string{"lot": "L"}, vc.Now)
	if err := rt.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	waitAttached(t, rt, 1)

	const n = 30
	for i := 0; i < n; i++ {
		d.Emit("presence", true)
	}
	waitUntil(t, "delivery", func() bool { return hd.n.Load() == n })

	rep, err := rt.Drain()
	if err != nil || !rep.Clean {
		t.Fatalf("drain: %+v, %v", rep, err)
	}
	d.Emit("presence", true)
	waitUntil(t, "drain refusal", func() bool { return rt.Stats().IngestDrainDrops == 1 })

	fs := rt.FleetStats()
	if len(fs.Apps) != 1 || fs.Apps[0].App != "default" {
		t.Fatalf("single-tenant scope: %+v", fs.Apps)
	}
	if !fs.Draining {
		t.Fatal("single-tenant fleet_stats does not report draining")
	}
	if fs.Apps[0].Counters["ingest_events"] != n {
		t.Fatalf("ingest_events = %d, want %d", fs.Apps[0].Counters["ingest_events"], n)
	}
}

// TestHostMetricsEndpoint boots a host with the Prometheus listener and
// scrapes it end to end: content type, app series, budget series, and the
// draining gauge flipping after a drain.
func TestHostMetricsEndpoint(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.MetricsAddr() == "" {
		t.Fatal("metrics listener not started")
	}

	hd := &recHandler{}
	deployTenant(t, h, "a", AppConfig{Contexts: map[string]ContextHandler{"Occ_a": hd}})
	d := bindTenantSensor(t, h, "a", "a-000", vc)
	rt, _ := h.App("a")
	waitAttached(t, rt, 1)
	const n = 10
	for i := 0; i < n; i++ {
		d.Emit("presence", true)
	}
	waitUntil(t, "delivery", func() bool { return hd.n.Load() == n })

	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + h.MetricsAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("content type = %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	body := scrape()
	for _, want := range []string{
		fmt.Sprintf(`diaspec_app_ingest_events{app="a"} %d`, n),
		`diaspec_budget_admitted{app="a"} ` + fmt.Sprint(n),
		`diaspec_registry_entities{kind="Sensor_a"} 1`,
		"diaspec_draining 0",
		"diaspec_host_bus_published",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q in:\n%s", want, body)
		}
	}
	if _, err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if body := scrape(); !strings.Contains(body, "diaspec_draining 1") {
		t.Fatal("draining gauge did not flip after drain")
	}
}
