package federation_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/devsim/chaos"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// recordCtx records every delivered presence reading per device, in arrival
// order — the observable the codec-equivalence property compares.
type recordCtx struct {
	mu  sync.Mutex
	seq map[string][]bool
	n   atomic.Uint64
}

func (c *recordCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	v, _ := call.Reading.Value.(bool)
	c.mu.Lock()
	c.seq[call.Reading.DeviceID] = append(c.seq[call.Reading.DeviceID], v)
	c.mu.Unlock()
	c.n.Add(1)
	return nil, false, nil
}

func (c *recordCtx) sequences() map[string][]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]bool, len(c.seq))
	for id, vals := range c.seq {
		out[id] = append([]bool(nil), vals...)
	}
	return out
}

// runChaosForwardStorm drives one owner→consumer event-forwarding pair
// through a deterministic storm-partition-spool-heal-replay cycle and
// returns what the consumer's context observed plus the owner's final
// stats. consumerOpts configures the consumer's transport server — the
// mixed-version run passes transport.WithoutColumnCodec.
func runChaosForwardStorm(t *testing.T, consumerOpts ...transport.ServerOption) (map[string][]bool, federation.Stats) {
	t.Helper()
	const sensors = 40
	cn := chaos.NewNet(21)

	model, err := dsl.Load(consumerDesign)
	if err != nil {
		t.Fatal(err)
	}
	crt := runtime.New(model, runtime.WithClock(simclock.NewVirtual(epoch)))
	rec := &recordCtx{seq: make(map[string][]bool)}
	if err := crt.ImplementContext("Occupancy", rec); err != nil {
		t.Fatal(err)
	}
	if err := crt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(crt.Stop)
	consumer, err := federation.New(federation.Config{Name: "hub", Endpoint: crt, ServerOpts: consumerOpts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(consumer.Close)

	_, owner, _, cs := newOwnerNode(t, "edge", sensors)
	if err := owner.AddPeer(func() federation.PeerConfig {
		pc := chaosPeer(cn, "edge->hub", "hub", consumer.Addr())
		pc.ForwardEvents = true
		return pc
	}()); err != nil {
		t.Fatal(err)
	}
	if err := consumer.AddPeer(func() federation.PeerConfig {
		pc := chaosPeer(cn, "hub->edge", "edge", owner.Addr())
		pc.Import = []string{"PresenceSensor"}
		return pc
	}()); err != nil {
		t.Fatal(err)
	}
	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	settle(t, cs)
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}

	// The default forward budget dwarfs these storms, so exactly-once
	// delivery of every accepted reading is the required fixed point: a
	// timeout here means a reading was dropped or the replay protection
	// double-ingested one.
	accepted := uint64(cs.StormLive(cs.LiveCount()))
	waitFor(t, "baseline delivery", func() bool { return rec.n.Load() == accepted })

	// Dark phase: emissions spool against the held budget.
	cn.Partition("edge->hub")
	cn.Partition("hub->edge")
	waitHealth(t, owner, "hub", transport.HealthPartitioned)
	accepted += uint64(cs.StormLive(cs.LiveCount()))

	cn.Heal("edge->hub")
	cn.Heal("hub->edge")
	waitHealth(t, owner, "hub", transport.HealthUp)
	waitFor(t, "replay drains the spool", func() bool { return rec.n.Load() == accepted })

	// Post-heal traffic rides whatever codec the fresh connection
	// negotiated.
	accepted += uint64(cs.StormLive(cs.LiveCount()))
	waitFor(t, "post-heal delivery", func() bool { return rec.n.Load() == accepted })

	return rec.sequences(), owner.Stats()
}

// TestColumnCodecEquivalenceUnderChaos is the wire-format property test:
// the same deterministic storm (seeded swarm, virtual clock, identical
// partition/heal schedule) runs once against a column-codec consumer and
// once against a consumer impersonating a pre-codec build. Both pairs must
// deliver exactly once through the outage, and the per-device value
// sequences the consuming context observes must be identical — the codec
// changes bytes on the wire, never semantics. The mixed-version pair must
// also show the negotiation actually fell back (codec_fallbacks > 0 on the
// sender), while the capable pair shipped its batches binary.
func TestColumnCodecEquivalenceUnderChaos(t *testing.T) {
	colSeqs, colStats := runChaosForwardStorm(t)
	gobSeqs, gobStats := runChaosForwardStorm(t, transport.WithoutColumnCodec())

	if !reflect.DeepEqual(colSeqs, gobSeqs) {
		t.Fatalf("codec changed delivery semantics:\n colv1: %v\n gob:   %v", colSeqs, gobSeqs)
	}
	if len(colSeqs) == 0 {
		t.Fatal("storm delivered nothing; the property was tested vacuously")
	}
	if gobStats.CodecFallbacks == 0 {
		t.Fatalf("mixed-version pair never fell back to gob: %+v", gobStats)
	}
	if colStats.EventBatchesSent == 0 {
		t.Fatalf("capable pair sent no batches: %+v", colStats)
	}
	// The capable pair may log a stray fallback when a publish races the
	// partition cut (the capability probe dies with the connection), but
	// steady-state traffic must be binary: fallbacks stay well below the
	// batch count.
	if colStats.CodecFallbacks*2 >= colStats.EventBatchesSent {
		t.Fatalf("capable pair fell back on %d of %d batches", colStats.CodecFallbacks, colStats.EventBatchesSent)
	}
}
