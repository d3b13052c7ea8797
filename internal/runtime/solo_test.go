package runtime

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/simclock"
)

// Tests that runtime.New is a one-app Host: the same design and readings
// yield the same counters either way, and the single app keeps its legacy
// single-tenant surface (scope "default", unprefixed snapshot keys,
// bind-before-Start, Stop-before-Start sealing the store, deferred
// construction errors). Run under -race -count=10.

// soloDesign carries both `when provided` dispatch shapes: an ungrouped
// call site and a grouped incremental aggregate.
const soloDesign = `
device Sensor_x { attribute zone as String; source presence as Boolean; }
context Occ_x as Boolean {
	when provided presence from Sensor_x
	no publish;
}
context Count_x as Integer {
	when provided presence from Sensor_x
	grouped by zone
	with map as Boolean reduce as Integer
	no publish;
}
`

const soloSensors, soloReadings = 4, 12

func soloSensor(i int, vc *simclock.Virtual) *pushSensor {
	return newPushSensor(fmt.Sprintf("s-%d", i), "Sensor_x",
		registry.Attributes{"zone": fmt.Sprintf("Z%d", i%2)}, vc.Now)
}

// driveSolo emits the fixed reading script one reading at a time, waiting
// for both contexts to be triggered before the next, so batching — and with
// it every counter — is deterministic. It returns the app's counters
// without pool_misses, which is process-wide rather than per app.
func driveSolo(t *testing.T, rt *Runtime, sensors []*pushSensor) map[string]uint64 {
	t.Helper()
	waitAttached(t, rt, 2*len(sensors))
	for i := 0; i < soloReadings; i++ {
		sensors[i%len(sensors)].Emit("presence", i%3 == 0)
		want := uint64(2 * (i + 1))
		waitUntil(t, "delivery", func() bool { return rt.Stats().ContextTriggers == want })
	}
	c := rt.Stats().Counters()
	delete(c, "pool_misses")
	return c
}

func soloConfig() (AppConfig, *aggCountHandler) {
	agg := &aggCountHandler{}
	return AppConfig{Contexts: map[string]ContextHandler{"Occ_x": &recHandler{}, "Count_x": agg}}, agg
}

func TestSingleTenantIsOneAppHost(t *testing.T) {
	model := mustLoadDesign(t, soloDesign)

	// Single-tenant: devices bind before Start.
	vc := simclock.NewVirtual(hostEpoch)
	cfg, soloAgg := soloConfig()
	rt := New(model, WithClock(vc), WithTuning(cfg))
	defer rt.Stop()
	var soloDevs []*pushSensor
	for i := 0; i < soloSensors; i++ {
		d := soloSensor(i, vc)
		if err := rt.BindDevice(d); err != nil {
			t.Fatalf("bind before Start: %v", err)
		}
		soloDevs = append(soloDevs, d)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	solo := driveSolo(t, rt, soloDevs)

	// The same app deployed on a host.
	hvc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: hvc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	hcfg, hostAgg := soloConfig()
	app, err := h.Deploy("x", model, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	var hostDevs []*pushSensor
	for i := 0; i < soloSensors; i++ {
		d := soloSensor(i, hvc)
		if err := h.BindDevice(d); err != nil {
			t.Fatal(err)
		}
		hostDevs = append(hostDevs, d)
	}
	hosted := driveSolo(t, app, hostDevs)

	if fmt.Sprint(solo) != fmt.Sprint(hosted) {
		t.Fatalf("counters differ:\nNew:    %v\nDeploy: %v", solo, hosted)
	}
	for _, z := range []string{"Z0", "Z1"} {
		if soloAgg.zone(z) != hostAgg.zone(z) || soloAgg.zone(z) == 0 {
			t.Fatalf("zone %s aggregate: New %d, Deploy %d", z, soloAgg.zone(z), hostAgg.zone(z))
		}
	}

	fs := rt.FleetStats()
	if len(fs.Apps) != 1 || fs.Apps[0].App != "default" {
		t.Fatalf("single-tenant fleet_stats scope: %+v", fs.Apps)
	}
	if len(fs.Budgets) != 1 || fs.Budgets[0].App != "default" {
		t.Fatalf("single-tenant budget scope: %+v", fs.Budgets)
	}
	if fs.Apps[0].Counters["context_triggers"] != solo["context_triggers"] {
		t.Fatalf("fleet_stats context_triggers = %d, want %d",
			fs.Apps[0].Counters["context_triggers"], solo["context_triggers"])
	}
	if hfs := h.FleetStats(); len(hfs.Apps) != 1 || hfs.Apps[0].App != "x" {
		t.Fatalf("hosted fleet_stats scope: %+v", hfs.Apps)
	}
}

// TestSingleTenantPersistLegacyKey restarts a persistent single-tenant
// runtime: its grouped aggregate checkpoints under the unprefixed legacy
// key and comes back from it.
func TestSingleTenantPersistLegacyKey(t *testing.T) {
	dir := t.TempDir()
	vc := simclock.NewVirtual(hostEpoch)
	model := mustLoadDesign(t, soloDesign)
	open := func() (*Runtime, *aggCountHandler) {
		cfg, agg := soloConfig()
		rt := New(model, WithSubstrate(SubstrateConfig{Clock: vc, PersistDir: dir}), WithTuning(cfg))
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		return rt, agg
	}

	rt, agg := open()
	for i := 0; i < soloSensors; i++ {
		d := soloSensor(i, vc)
		if err := rt.BindDevice(d); err != nil {
			t.Fatal(err)
		}
		waitAttached(t, rt, 2*(i+1))
		d.Emit("presence", true)
	}
	waitUntil(t, "aggregate", func() bool { return agg.zone("Z0")+agg.zone("Z1") == soloSensors })
	rt.Stop()

	rt2, agg2 := open()
	defer rt2.Stop()
	if len(rt2.host.aggRestore) != 1 {
		t.Fatalf("recovered %d agg checkpoints, want 1: %q", len(rt2.host.aggRestore), keysOf(rt2.host.aggRestore))
	}
	if _, ok := rt2.host.aggRestore["Count_x#0"]; !ok {
		t.Fatalf("checkpoint not under the legacy key Count_x#0: %q", keysOf(rt2.host.aggRestore))
	}
	// One more device continues the restored count instead of restarting it.
	d := soloSensor(soloSensors, vc) // zone Z0
	if err := rt2.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	waitAttached(t, rt2, 2)
	d.Emit("presence", true)
	waitUntil(t, "restored aggregate", func() bool {
		return agg2.zone("Z0") == soloSensors/2+1 && agg2.zone("Z1") == soloSensors/2
	})
}

func keysOf(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// TestSingleTenantStopBeforeStartSealsStore binds a device, never starts,
// and stops: the store is sealed with a final snapshot that a restart
// recovers the binding from.
func TestSingleTenantStopBeforeStartSealsStore(t *testing.T) {
	dir := t.TempDir()
	vc := simclock.NewVirtual(hostEpoch)
	model := mustLoadDesign(t, soloDesign)
	sub := SubstrateConfig{Clock: vc, PersistDir: dir}

	rt := New(model, WithSubstrate(sub))
	if err := rt.BindDevice(soloSensor(0, vc)); err != nil {
		t.Fatalf("bind before Start: %v", err)
	}
	rt.Stop()
	rt.Stop() // idempotent
	if err := rt.Persistence().Snapshot(); !errors.Is(err, persist.ErrClosed) {
		t.Fatalf("store after Stop-before-Start: Snapshot() = %v, want ErrClosed", err)
	}

	rt2 := New(model, WithSubstrate(sub))
	defer rt2.Stop()
	if _, ok := rt2.Registry().Get("s-0"); !ok {
		t.Fatal("binding made before Stop-before-Start was not recovered")
	}
}

// TestSingleTenantDeferredErrors checks that failures New cannot return — a
// persistence directory that does not open, an invalid handler — surface
// from Start, and that the handle still stops cleanly.
func TestSingleTenantDeferredErrors(t *testing.T) {
	model := mustLoadDesign(t, soloDesign)
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rt := New(model, WithSubstrate(SubstrateConfig{PersistDir: notDir}))
	if err := rt.Start(); err == nil || !strings.Contains(err.Error(), "open persistence") {
		t.Fatalf("Start with unopenable persistence: %v", err)
	}
	rt.Stop()

	rt = New(model, WithTuning(AppConfig{Contexts: map[string]ContextHandler{"Ghost": &recHandler{}}}))
	if err := rt.Start(); err == nil || !strings.Contains(err.Error(), "Ghost") {
		t.Fatalf("Start with undeclared handler: %v", err)
	}
	rt.Stop()
}
