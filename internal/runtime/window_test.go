package runtime_test

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/mapreduce"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// windowWorld is a fleet polled by one grouped `every` interaction. Each
// sensor answers fn(id, tick), where tick counts completed rounds, so a
// window's contents name the round each value came from.
type windowWorld struct {
	rt *runtime.Runtime
	vc *simclock.Virtual
	fn func(id string, tick int) any

	mu      sync.Mutex
	tick    int
	windows []map[string][]any // as delivered, retained
}

func newWindowWorld(t *testing.T, design string, fn func(id string, tick int) any, h runtime.ContextHandler) *windowWorld {
	t.Helper()
	vc := simclock.NewVirtual(epoch)
	w := &windowWorld{rt: runtime.New(dsl.MustLoad(design), runtime.WithClock(vc)), vc: vc, fn: fn}
	t.Cleanup(w.rt.Stop)
	if h == nil {
		h = funcContext(func(call *runtime.ContextCall) (any, bool, error) {
			w.mu.Lock()
			w.windows = append(w.windows, call.Grouped)
			w.mu.Unlock()
			return len(call.Grouped), false, nil
		})
	}
	if err := w.rt.ImplementContext("Agg", h); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *windowWorld) bind(t *testing.T, id, zone string) {
	t.Helper()
	d := device.NewBase(id, "S", nil, registry.Attributes{"zone": zone}, w.vc.Now)
	d.OnQuery("level", func() (any, error) {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.fn(id, w.tick), nil
	})
	if err := w.rt.BindDevice(d); err != nil {
		t.Fatal(err)
	}
}

// round advances one period, waits for its poll, and moves the tick on.
func (w *windowWorld) round(t *testing.T) {
	t.Helper()
	before := w.rt.Stats().PeriodicPolls
	w.vc.Advance(time.Minute)
	waitFor(t, "poll", func() bool { return w.rt.Stats().PeriodicPolls > before })
	w.mu.Lock()
	w.tick++
	w.mu.Unlock()
}

func (w *windowWorld) waitWindows(t *testing.T, n int) []map[string][]any {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d windows", n), func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.windows) >= n
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]map[string][]any(nil), w.windows...)
}

const windowDesign = `
device S { attribute zone as String; source level as String; }
context Agg as Integer { when periodic level from S <1 min> grouped by zone every <3 min> no publish; }
`

func tagged(id string, tick int) any { return fmt.Sprintf("%s@%d", id, tick) }

// TestEveryWindowFleetChurn: binds, unbinds and re-homes between the ticks
// of one window. Each round's values land under the groups of that round's
// fleet, in round order and, within a round, in device-ID order.
func TestEveryWindowFleetChurn(t *testing.T) {
	w := newWindowWorld(t, windowDesign, tagged, nil)
	w.bind(t, "a", "z1")
	w.bind(t, "b", "z1")
	w.bind(t, "c", "z2")
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	w.round(t) // tick 0: a,b in z1; c in z2

	w.bind(t, "d", "z3") // a group first seen mid-window
	if err := w.rt.UnbindDevice("b"); err != nil {
		t.Fatal(err)
	}
	if err := w.rt.Registry().Update("c", registry.Attributes{"zone": "z1"}, ""); err != nil {
		t.Fatal(err)
	}
	w.round(t) // tick 1: a,c in z1; d in z3

	if err := w.rt.Registry().Update("a", registry.Attributes{"zone": "z2"}, ""); err != nil {
		t.Fatal(err)
	}
	w.round(t) // tick 2: a in z2; c in z1; d in z3

	got := w.waitWindows(t, 1)[0]
	want := map[string][]any{
		"z1": {"a@0", "b@0", "a@1", "c@1", "c@2"},
		"z2": {"c@0", "a@2"},
		"z3": {"d@1", "d@2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window = %v, want %v", got, want)
	}
}

// TestEveryWindowRetainedAcrossWindows: the columns a handler receives are
// its own; the next window never writes into them.
func TestEveryWindowRetainedAcrossWindows(t *testing.T) {
	w := newWindowWorld(t, windowDesign, tagged, nil)
	w.bind(t, "a", "z1")
	w.bind(t, "b", "z2")
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.round(t)
	}
	first := w.waitWindows(t, 1)[0]
	snapshot := make(map[string][]any, len(first))
	for k, vs := range first {
		snapshot[k] = append([]any(nil), vs...)
	}
	for i := 0; i < 3; i++ {
		w.round(t)
	}
	second := w.waitWindows(t, 2)[1]
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatalf("retained window changed to %v, was %v", first, snapshot)
	}
	if want := []any{"a@3", "a@4", "a@5"}; !reflect.DeepEqual(second["z1"], want) {
		t.Fatalf("second window z1 = %v, want %v", second["z1"], want)
	}
}

// parityHandler maps each reading to (zone, value) and reduces a zone to
// the sum of its values weighted by position, so the result depends on
// both the values and their order.
type parityHandler struct {
	mu  sync.Mutex
	got []map[string]any
}

func (h *parityHandler) Map(zone string, v any, emit func(string, any)) { emit(zone, v) }
func (h *parityHandler) Reduce(zone string, vs []any, emit func(string, any)) {
	sum := 0
	for i, v := range vs {
		sum += (i + 1) * v.(int)
	}
	emit(zone, sum)
}
func (h *parityHandler) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	h.mu.Lock()
	h.got = append(h.got, call.GroupedReduced)
	h.mu.Unlock()
	return nil, false, nil
}

// TestEveryWindowMapReduceMatchesBatch: an `every` window with map/reduce
// delivers what mapreduce.Run computes over the window's rounds
// concatenated.
func TestEveryWindowMapReduceMatchesBatch(t *testing.T) {
	const design = `
device S { attribute zone as String; source level as Integer; }
context Agg as Integer {
	when periodic level from S <1 min> grouped by zone every <4 min>
	with map as Integer reduce as Integer
	no publish;
}
`
	value := func(id string, tick int) any { return len(id)*7 + tick*tick }
	h := &parityHandler{}
	w := newWindowWorld(t, design, value, h)
	ids := []string{"s1", "s22", "s333", "s4444", "s55555"}
	zones := map[string]string{"s1": "z1", "s22": "z2", "s333": "z1", "s4444": "z3", "s55555": "z2"}
	for _, id := range ids {
		w.bind(t, id, zones[id])
	}
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	var in []mapreduce.Pair[string, any]
	for tick := 0; tick < 4; tick++ {
		for _, id := range ids { // the poller's slot order: device IDs sorted
			in = append(in, mapreduce.Pair[string, any]{Key: zones[id], Value: value(id, tick)})
		}
		w.round(t)
	}
	waitFor(t, "window", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.got) == 1
	})
	want := make(map[string]any)
	for _, p := range mapreduce.Run(in, h.Map, h.Reduce, mapreduce.Config{}) {
		want[p.Key] = p.Value
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !reflect.DeepEqual(h.got[0], want) {
		t.Fatalf("window reduced to %v, mapreduce.Run over the rounds gives %v", h.got[0], want)
	}
}

// TestEveryWindowAllocationPerReading guards the columnar window: over a
// full window of a 1k-device fleet, everything the runtime allocates —
// rounds, window, flush and dispatch — stays under 64 B per reading.
func TestEveryWindowAllocationPerReading(t *testing.T) {
	const (
		fleet = 1000
		ticks = 6
	)
	design := `
device S { attribute zone as String; source level as Boolean; }
context Agg as Integer { when periodic level from S <1 min> grouped by zone every <6 min> no publish; }
`
	var windows atomic.Int64
	var values atomic.Int64
	h := funcContext(func(call *runtime.ContextCall) (any, bool, error) {
		for _, vs := range call.Grouped {
			values.Add(int64(len(vs)))
		}
		windows.Add(1)
		return nil, false, nil
	})
	w := newWindowWorld(t, design, func(id string, tick int) any { return tick%2 == 0 }, h)
	for i := 0; i < fleet; i++ {
		w.bind(t, fmt.Sprintf("s%04d", i), fmt.Sprintf("lot%d", i%20))
	}
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	window := func(n int64) {
		for i := 0; i < ticks; i++ {
			w.round(t)
		}
		waitFor(t, "window delivery", func() bool { return windows.Load() == n })
	}
	window(1) // warm: snapshot, worker pool, round columns

	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	window(2)
	goruntime.ReadMemStats(&after)

	if got := values.Load(); got != 2*fleet*ticks {
		t.Fatalf("delivered %d values over two windows, want %d", got, 2*fleet*ticks)
	}
	perReading := float64(after.TotalAlloc-before.TotalAlloc) / (fleet * ticks)
	if perReading >= 64 {
		t.Fatalf("window allocates %.1f B per reading, want < 64", perReading)
	}
	t.Logf("%.1f B allocated per reading", perReading)
}
