// Command perfbench is the repository's end-to-end benchmark. It drives the
// public runtime, device, federation and simclock APIs from outside with
// benchmark-owned drivers, handlers and actuators, checks every output
// against ground truth, and prints one JSON result line.
//
//	go run ./perfbench --workload storm --seed 1 --seconds 10 --trace 0
//
// Workloads: storm (open-loop push storm on one host), city (the paper's
// Figure 8 parking design over 5k swarm sensors on a virtual clock) and
// federated-churn (hub + edge over loopback TCP with fleet churn). With
// --trace 1 the measured window is split: the first half runs untraced and
// the second half records spans, from which per-layer metrics, self times
// and the tracing overhead are derived. See perfbench/METRICS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, its counts and its human-readable
// lines. Every workload fills every end-to-end metric and, traced, every
// per-layer metric listed in BENCHMARK.json.
type report struct {
	e2e   map[string]metric
	layer map[string]metric
	// extras are measured and printed but not part of the result line:
	// end-to-end metrics too unsteady to gate, and timings of layers only
	// some workloads exercise.
	extras    map[string]metric
	attempted uint64
	failed    uint64
	problems  []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, extras: map[string]metric{}}
}

func (r *report) extra(name string, v float64, unit string) { r.extras[name] = metric{v, unit} }

func (r *report) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *report) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// fail records a correctness violation; any one fails the run.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Println("ORACLE FAIL:", msg)
}

// e2eMetrics and layerMetrics are the metrics BENCHMARK.json lists, with
// their units. Every workload reports every one of them: end-to-end
// metrics untraced, per-layer metrics traced. Latencies, throughput_eps,
// sustained_eps and cpu_us_per_reading are printed too but not listed:
// their run-to-run spread on a shared two-vCPU VM reaches or exceeds the
// largest bound. A per-layer count of a layer a workload does not
// exercise reads 0; every timed per-layer metric is measured on all three
// workloads (times of single-workload layers are printed as extras
// instead).
var e2eMetrics = map[string]string{
	"setup_s":             "s",
	"peak_rss_mb":         "MB",
	"alloc_b_per_reading": "B",
}

var layerMetrics = map[string]string{
	"gen.late_p99_ms":                        "ms",
	"setup.deploy_ms":                        "ms",
	"setup.bind_ms":                          "ms",
	"setup.attach_ms":                        "ms",
	"registry.bind_us_p50":                   "us",
	"registry.bind_us_p99":                   "us",
	"context.handler_us_p50":                 "us",
	"runtime.controller.publish_us_p50":      "us",
	"runtime.controller.publish_us_p99":      "us",
	"runtime.controller.actuate_us_p50":      "us",
	"runtime.controller.actuate_us_p99":      "us",
	"runtime.ingest.events_per_batch":        "events",
	"runtime.ingest.backlog_max":             "events",
	"runtime.ingest.drops":                   "count",
	"runtime.pool_misses":                    "count",
	"runtime.tracker_reconciles":             "count",
	"runtime.poll.queries_per_round":         "count",
	"runtime.poll.snapshot_rebuilds":         "count",
	"runtime.poll.changed_ratio":             "ratio",
	"mapreduce.map_calls_per_round":          "count",
	"mapreduce.combine_calls_per_round":      "count",
	"mapreduce.reduce_calls_per_round":       "count",
	"mapreduce.dirty_group_ratio":            "ratio",
	"federation.events_per_batch":            "events",
	"runtime.remote_ingest.events_per_batch": "events",
	"federation.forward_drops":               "count",
	"federation.mirror_changes_per_sync":     "count",
	"transport.bytes_per_event":              "B",
	"transport.writes_per_batch":             "count",
	"transport.codec_fallbacks":              "count",
	"persist.wal_bytes_per_write":            "B",
	"go.gc_cycles_per_mreading":              "count",
	"go.gc_pause_ms_total":                   "ms",
}

// isTime reports whether a unit is a duration.
func isTime(unit string) bool { return unit == "s" || unit == "ms" || unit == "us" || unit == "ns" }

// complete checks got against the catalog: an idle layer's missing count
// reads 0, while a missing timing, a unit mismatch or an uncatalogued
// name is a benchmark bug.
func complete(got map[string]metric, catalog map[string]string) error {
	for name, unit := range catalog {
		m, ok := got[name]
		switch {
		case !ok && isTime(unit):
			return fmt.Errorf("metric %s not measured", name)
		case !ok:
			got[name] = metric{0, unit}
		case m.Unit != unit:
			return fmt.Errorf("metric %s in %s, catalog says %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := catalog[name]; !ok {
			return fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	return nil
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

func main() { os.Exit(realMain()) }

// realMain runs one benchmark invocation and returns the exit code: 0 when
// every oracle held, 1 on a failed oracle or run error, 2 on bad flags.
func realMain() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "storm", "workload: storm, city or federated-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", ".bench_build/traces", "directory for span files of traced runs")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version())

	rep := newReport()
	var err error
	switch o.workload {
	case "storm":
		err = runStorm(o, rep)
	case "city":
		err = runCity(o, rep)
	case "federated-churn":
		err = runFederated(o, rep)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	rep.setLayer("go.gc_pause_ms_total", float64(markMem().pauseNs)/1e6, "ms")
	if !emit(o, rep) {
		return 1
	}
	return 0
}

// emit prints the metric listing and the JSON result line; it reports
// whether every oracle held.
func emit(o options, rep *report) bool {
	metrics, catalog := rep.e2e, e2eMetrics
	printMetrics("also measured, not in BENCHMARK.json:", rep.extras)
	if o.trace {
		metrics, catalog = rep.layer, layerMetrics
		printMetrics("end-to-end metrics (untraced half):", rep.e2e)
	}
	if err := complete(metrics, catalog); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	printMetrics("result metrics:", metrics)
	correct := len(rep.problems) == 0
	if !correct {
		fmt.Println("oracles failed:", strings.Join(rep.problems, "; "))
		rep.failed += uint64(len(rep.problems))
	}
	attempted := rep.attempted
	if attempted == 0 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, n := range names {
		fmt.Printf("  %-42s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// seconds converts a float seconds flag share into a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
