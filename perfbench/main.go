// Command perfbench is phasebeat's end-to-end benchmark at the paper's
// operating point: 400 Hz, 30-subcarrier, 2-antenna CSI, a 60 s window
// and a 5 s stride. Run it from the repository root through the wrapper,
// which builds it first:
//
//	bash perfbench/run.sh --workload ward --seed 1 --seconds 50 --trace 0
//
// Workloads are ward, ward-archive and night-track (see README.md). With
// --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// measures an untraced and a traced phase and prints the per-layer
// metrics, including the tracing overhead. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEndUnits lists the end-to-end metrics every workload reports.
var endToEndUnits = []metric{
	{name: "update_p50_ms", unit: "ms"},
	{name: "update_p95_ms", unit: "ms"},
	{name: "sessions_per_core", unit: "session-s/cpu-s"},
	{name: "session_mem_mb", unit: "MB"},
	{name: "realtime_x", unit: "CSI-s/wall-s"},
	{name: "setup_s", unit: "s"},
}

// perLayerUnits lists the per-layer metrics every traced run reports. A
// layer a workload does not run reads 0 there. The store's metrics,
// fleet.arena_reuse_frac and failed_frac are not among them: they read 0
// on every run of a workload BENCHMARK.json gates (only ward-archive
// records, no ward closes a session, and a correct run fails nothing),
// so they are printed as report lines instead.
var perLayerUnits = func() []metric {
	ms := []metric{
		{name: "fleet.client_ingest_us_p99", unit: "us"},
		{name: "fleet.gen_lag_ms_p95", unit: "ms"},
		{name: "fleet.frame_us_p50", unit: "us"},
		{name: "fleet.mailbox_ms_p50", unit: "ms"},
		{name: "fleet.mailbox_ms_p95", unit: "ms"},
		{name: "fleet.deliver_us_p50", unit: "us"},
		{name: "fleet.pickup_us_p50", unit: "us"},
		{name: "fleet.span_coverage_frac", unit: "ratio"},
		{name: "core.queue_ms_p50", unit: "ms"},
		{name: "core.queue_ms_p95", unit: "ms"},
		{name: "core.compute_ms_p50", unit: "ms"},
		{name: "core.compute_ms_p95", unit: "ms"},
		{name: "core.compute_ms_max", unit: "ms"},
	}
	for _, s := range stageNames {
		ms = append(ms, metric{name: "core.stage." + s + ".ms_p50", unit: "ms"})
	}
	ms = append(ms,
		metric{name: "core.smoothed_samples_per_stride", unit: "count"},
		metric{name: "core.alloc_kb_per_update", unit: "KB"},
		metric{name: "core.alloc_mb_per_window", unit: "MB"},
		metric{name: "core.fanout_speedup", unit: "x"},
		metric{name: "runtime.gc_cpu_frac", unit: "ratio"},
		metric{name: "runtime.sched_latency_ms_p95", unit: "ms"},
	)
	for _, m := range endToEndUnits {
		ms = append(ms, metric{name: "overhead." + m.name, unit: m.unit})
	}
	return ms
}()

// options selects one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// out receives the traced run's spans and the archive's store.
	out string
	// small shrinks the workloads to a smoke-test size.
	small bool
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	failures          []string
	// metrics is the set the JSON line carries; report adds lines for
	// the human-readable part only.
	metrics, report []metric
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "ward, ward-archive or night-track")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed builds the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 50, "length of the measured phase in seconds")
	fs.BoolVar(&o.small, "small", false, "smoke-test size: two beds, or one short recording")
	traceFlag := fs.Int("trace", 0, "1 measures an untraced and a traced phase and reports per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for spans and the archive's store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = *traceFlag == 1
	// The whole run must end well inside three minutes.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded 170 s")
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.attempted-res.failed <= 0 {
		fmt.Fprintf(stderr, "perfbench: no operation succeeded (%d attempted)\n", res.attempted)
		return 1
	}
	if err := printOutcome(stdout, o, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runWorkload dispatches one run.
func runWorkload(o options) (*outcome, error) {
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	switch o.workload {
	case "ward", "ward-archive":
		return wardOutcome(o)
	case "night-track":
		return nightOutcome(o)
	default:
		return nil, fmt.Errorf("unknown workload %q (want ward, ward-archive or night-track)", o.workload)
	}
}

func printOutcome(w io.Writer, o options, res *outcome) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.traced)
	for _, f := range res.failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	vals := make(map[string]map[string]any, len(res.metrics))
	for _, m := range append(append([]metric(nil), res.metrics...), res.report...) {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range res.metrics {
		vals[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   vals,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// canonical lays got out as perLayerUnits: every per-layer metric in
// order, 0 for one the workload does not produce.
func canonical(got []metric) []metric {
	byName := make(map[string]float64, len(got))
	for _, m := range got {
		byName[m.name] = m.value
	}
	out := make([]metric, len(perLayerUnits))
	for i, m := range perLayerUnits {
		out[i] = metric{m.name, byName[m.name], m.unit}
	}
	return out
}

// overhead reports traced − untraced for every end-to-end metric.
func overhead(untraced, traced []metric) []metric {
	out := make([]metric, len(untraced))
	for i := range untraced {
		out[i] = metric{"overhead." + untraced[i].name, traced[i].value - untraced[i].value, untraced[i].unit}
	}
	return out
}

// writeJSON stores v under the output directory.
func writeJSON(dir, name string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func failedFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
