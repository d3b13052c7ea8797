package main

import (
	"testing"

	"repro/internal/registry"
	"repro/internal/runtime"
)

// TestPerReadingLowerQuartile checks the cost estimator: the lower
// quartile of the windows, which disturbances raising up to three
// quarters of them leave alone, and the phase total when there are too
// few windows.
func TestPerReadingLowerQuartile(t *testing.T) {
	wins := []float64{9, 5, 50, 6, 7, 40, 8, 30}
	if got := perReading(wins, 0, 1); got != 7 {
		t.Fatalf("lower quartile %v, want 7", got)
	}
	// Six of eight windows disturbed: the estimate stays within the
	// undisturbed ones' range.
	if got := perReading([]float64{5, 6, 60, 70, 80, 90, 95, 99}, 0, 1); got < 5 || got > 60 {
		t.Fatalf("lower quartile %v left the undisturbed range", got)
	}
	if got := perReading([]float64{1, 2, 3}, 900, 100); got != 9 {
		t.Fatalf("short phase: %v, want the total 9", got)
	}
}

// TestMirrorsMatch checks the federated-churn mirror oracle: the hub's
// PresenceSensors must be exactly the edge's live fleet, by ID, each a
// mirror owned by the edge.
func TestMirrorsMatch(t *testing.T) {
	cases := []struct {
		name    string
		mirrors []registry.Entity
		live    []int
		want    bool
	}{
		{"same set", []registry.Entity{mirror(0), mirror(2)}, []int{2, 0}, true},
		{"missing", []registry.Entity{mirror(0)}, []int{0, 2}, false},
		{"stale", []registry.Entity{mirror(0), mirror(1)}, []int{0}, false},
		{"same count, other IDs", []registry.Entity{mirror(0), mirror(1)}, []int{0, 2}, false},
		{"local, not a mirror", []registry.Entity{mirror(0), {ID: registry.ID(sensorID(2)), Kind: "PresenceSensor"}}, []int{0, 2}, false},
	}
	for _, c := range cases {
		hub, err := runtime.NewHost(runtime.SubstrateConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c.mirrors {
			if err := hub.Registry().Register(e); err != nil {
				t.Fatal(err)
			}
		}
		f := &fedRig{g: &eventRig{sensors: make([]*pushSensor, 3)}, hub: hub, live: c.live}
		if got := f.mirrorsMatch(); got != c.want {
			t.Errorf("%s: mirrorsMatch = %v, want %v", c.name, got, c.want)
		}
		hub.Close()
	}
}

func mirror(i int) registry.Entity {
	return registry.Entity{ID: registry.ID(sensorID(i)), Kind: "PresenceSensor", Origin: "edge"}
}
