package main

import (
	"sync/atomic"
	"testing"

	"repro/internal/device"
)

type countSink struct{ n int }

func (s *countSink) Push(device.Reading) { s.n++ }

// TestPushSensorSinks checks the benchmark's driver: a reading reaches
// every attached sink, a sensor counts as attached while it has any sink,
// and cancel is idempotent.
func TestPushSensorSinks(t *testing.T) {
	var attached, overlaps atomic.Int64
	p := &pushSensor{id: sensorID(7), lot: lotOf(7), attached: &attached, overlaps: &overlaps}
	if p.push(device.Reading{}) {
		t.Fatal("push accepted with no sink attached")
	}
	a, b := &countSink{}, &countSink{}
	cancelA, err := p.SubscribePush("presence", a)
	if err != nil {
		t.Fatal(err)
	}
	cancelB, err := p.SubscribePush("presence", b)
	if err != nil {
		t.Fatal(err)
	}
	if attached.Load() != 1 || overlaps.Load() != 1 {
		t.Fatalf("attached %d, overlaps %d; want 1, 1", attached.Load(), overlaps.Load())
	}
	p.push(device.Reading{})
	cancelA()
	cancelA()
	p.push(device.Reading{})
	if a.n != 1 || b.n != 2 || attached.Load() != 1 {
		t.Fatalf("sink a got %d, b %d, attached %d; want 1, 2, 1", a.n, b.n, attached.Load())
	}
	cancelB()
	if p.push(device.Reading{}) || attached.Load() != 0 {
		t.Fatalf("push accepted after every sink detached (attached %d)", attached.Load())
	}
	if _, err := p.SubscribePush("other", a); err == nil {
		t.Fatal("unknown source accepted")
	}
}
