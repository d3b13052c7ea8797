package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// buildPersistedFleet populates dir with the crash image of a node owning
// `sensors` registered devices: half the fleet captured in a snapshot, the
// other half in the WAL tail behind it — so recovery exercises both the
// snapshot load and the replay path. The store is crashed (after a barrier)
// rather than closed, exactly as a power failure would leave it.
func buildPersistedFleet(b *testing.B, dir string, sensors int) {
	b.Helper()
	vc := simclock.NewVirtual(benchEpoch)
	rt := runtime.New(dsl.MustLoad(fedEdgeDesign),
		runtime.WithSubstrate(runtime.SubstrateConfig{Clock: vc, PersistDir: dir}))
	if err := rt.Start(); err != nil {
		b.Fatal(err)
	}
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: []string{"A22", "B16", "D6", "E31"},
		GroupAttr: "zone", Seed: 7,
	}, vc)
	for i, s := range swarm.Sensors() {
		if i == sensors/2 {
			if err := rt.Persistence().Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		if err := rt.BindDevice(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := rt.Persistence().Barrier(); err != nil {
		b.Fatal(err)
	}
	rt.Persistence().Crash()
	rt.Stop()
}

func copyPersistDir(b *testing.B, src, dst string) {
	b.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	names, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, de := range names {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersist_Recovery: cold-boot recovery of a crashed node's durable
// state across fleet sizes — open the store, load the newest snapshot,
// replay the WAL tail and install every registration into the runtime's
// registry. One iteration is one full runtime boot from the crash image.
// The headline metric is devices/sec of restored registration throughput.
func BenchmarkPersist_Recovery(b *testing.B) {
	for _, sensors := range []int{1000, 12500, 50000} {
		b.Run(fmt.Sprintf("n=%d", sensors), func(b *testing.B) {
			image := b.TempDir()
			buildPersistedFleet(b, image, sensors)
			scratch := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(scratch, fmt.Sprintf("boot-%d", i))
				copyPersistDir(b, image, dir)
				b.StartTimer()
				rt := runtime.New(dsl.MustLoad(fedEdgeDesign),
					runtime.WithSubstrate(runtime.SubstrateConfig{
						Clock: simclock.NewVirtual(benchEpoch), PersistDir: dir,
					}))
				if err := rt.Start(); err != nil {
					b.Fatal(err)
				}
				rec := rt.Persistence().Recovered()
				if rec == nil || len(rec.Entities) != sensors {
					b.Fatalf("recovered %v entities, want %d", rec, sensors)
				}
				b.StopTimer()
				rt.Persistence().Crash()
				rt.Stop()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(sensors)*float64(b.N)/b.Elapsed().Seconds(), "devices/sec")
		})
	}
}
