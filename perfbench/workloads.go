package main

import (
	"fmt"
	"runtime"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/otrace"
)

// wardSpecFor sizes a ward workload: 12 beds, or 2 at smoke-test size.
func wardSpecFor(o options, seconds float64, traced bool) wardSpec {
	s := wardSpec{beds: 12, seconds: seconds, seed: o.seed, traced: traced,
		archive: o.workload == "ward-archive", dir: o.out}
	if o.small {
		s.beds = 2
	}
	return s
}

// wardOutcome runs a ward workload. Untraced it measures one phase of
// o.seconds; traced it measures an untraced and a traced phase of half
// that each, both from their own set-up.
func wardOutcome(o options) (*outcome, error) {
	if !o.traced {
		r, err := runWard(wardSpecFor(o, o.seconds, false))
		if err != nil {
			return nil, err
		}
		res := &outcome{metrics: r.endToEnd()}
		res.attempted, res.failed, res.failures = r.checks()
		res.report = wardReport(r, res)
		return res, nil
	}
	plain, err := runWard(wardSpecFor(o, o.seconds/2, false))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	traced, err := runWard(wardSpecFor(o, o.seconds/2, true))
	if err != nil {
		return nil, err
	}
	res := &outcome{}
	a1, f1, fs1 := plain.checks()
	a2, f2, fs2 := traced.checks()
	res.attempted, res.failed, res.failures = a1+a2, f1+f2, append(fs1, fs2...)
	e2e := traced.endToEnd()
	got := append(wardLayers(traced), overhead(plain.endToEnd(), e2e)...)
	res.metrics = canonical(got)
	res.report = append(prefixed("traced.", e2e), wardReport(traced, res)...)
	if err := writeJSON(o.out, fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed), traced.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// wardReport adds the human-readable lines every ward run prints.
func wardReport(r *wardRun, res *outcome) []metric {
	lag, _ := r.genTimes()
	lat, _ := r.latencies()
	out := []metric{
		{"failed_frac", failedFrac(res.attempted, res.failed), "ratio"},
		{"updates_measured", float64(len(lat)), "count"},
		{"update_p95_pooled_ms", quantile(lat, 0.95), "ms"},
		{"gen_lag_ms_p95", durQuantile(lag, 0.95, time.Millisecond), "ms"},
		{"gen_lag_ms_p99", durQuantile(lag, 0.99, time.Millisecond), "ms"},
		{"fleet.arena_reuse_frac", r.arenaReuse, "ratio"},
	}
	if r.queries > 0 {
		out = append(out, r.storeMetrics()...)
	}
	return out
}

// storeMetrics reports the archive's metrics: what its users see (query
// latency and archive size) and its layer timings.
func (r *wardRun) storeMetrics() []metric {
	return []metric{
		{"tier_query_p50_us", durQuantile(r.tierQuery, 0.5, time.Microsecond), "us"},
		{"raw_query_p50_ms", durQuantile(r.rawQuery, 0.5, time.Millisecond), "ms"},
		{"archive_mb_per_bed_h", r.archiveMBPerBedH, "MB"},
		{"store.append_us_p50", durQuantile(r.appends, 0.5, time.Microsecond), "us"},
		{"store.append_ms_p99", durQuantile(r.appends, 0.99, time.Millisecond), "ms"},
		{"store.seal_ms_p50", durQuantile(r.seals, 0.5, time.Millisecond), "ms"},
		{"store.seals", float64(r.sealCount), "count"},
		{"store.append_update_us_p50", durQuantile(r.upds, 0.5, time.Microsecond), "us"},
		{"store.blocks_per_raw_query", mean(r.blocksRead), "count"},
		{"store.bytes_per_packet", r.bytesPerPacket, "B"},
	}
}

// wardLayers reports the per-layer metrics of a traced ward phase.
func wardLayers(r *wardRun) []metric {
	lag, ingest := r.genTimes()
	seg := map[string][]time.Duration{}
	var total, pickup []time.Duration
	for _, s := range r.spans {
		for _, g := range s.Segments {
			seg[g.Name] = append(seg[g.Name], time.Duration(g.Nanos))
		}
		total = append(total, time.Duration(s.TotalNanos))
		if s.PickupNanos > 0 {
			pickup = append(pickup, time.Duration(s.PickupNanos))
		}
	}
	coverage := 0.0
	if lat, _ := r.latencies(); len(lat) > 0 {
		coverage = durQuantile(total, 0.5, time.Millisecond) / quantile(lat, 0.5)
	}
	updates := float64(max(1, r.updates))
	out := []metric{
		{"fleet.client_ingest_us_p99", durQuantile(ingest, 0.99, time.Microsecond), "us"},
		{"fleet.gen_lag_ms_p95", durQuantile(lag, 0.95, time.Millisecond), "ms"},
		{"fleet.frame_us_p50", durQuantile(seg[otrace.SegFrame], 0.5, time.Microsecond), "us"},
		{"fleet.mailbox_ms_p50", durQuantile(seg[otrace.SegMailbox], 0.5, time.Millisecond), "ms"},
		{"fleet.mailbox_ms_p95", durQuantile(seg[otrace.SegMailbox], 0.95, time.Millisecond), "ms"},
		{"fleet.deliver_us_p50", durQuantile(seg[otrace.SegDeliver], 0.5, time.Microsecond), "us"},
		{"fleet.pickup_us_p50", durQuantile(pickup, 0.5, time.Microsecond), "us"},
		{"fleet.span_coverage_frac", coverage, "ratio"},
		{"core.queue_ms_p50", durQuantile(seg[otrace.SegQueue], 0.5, time.Millisecond), "ms"},
		{"core.queue_ms_p95", durQuantile(seg[otrace.SegQueue], 0.95, time.Millisecond), "ms"},
		{"core.compute_ms_p50", durQuantile(seg[otrace.SegCompute], 0.5, time.Millisecond), "ms"},
		{"core.compute_ms_p95", durQuantile(seg[otrace.SegCompute], 0.95, time.Millisecond), "ms"},
		{"core.compute_ms_max", durQuantile(seg[otrace.SegCompute], 1, time.Millisecond), "ms"},
		{"core.alloc_kb_per_update", float64(r.allocBytes) / updates / (1 << 10), "KB"},
		{"runtime.gc_cpu_frac", r.gcFrac, "ratio"},
		{"runtime.sched_latency_ms_p95", r.schedP, "ms"},
	}
	return append(out, r.stages.metrics()...)
}

// nightSpecFor sizes night-track: three two-minute recordings, or one
// 70 s recording at smoke-test size.
func nightSpecFor(o options) nightSpec {
	if o.small {
		return nightSpec{traces: 1, traceSeconds: 70, seed: o.seed, setups: 1}
	}
	return nightSpec{traces: 3, traceSeconds: 120, seed: o.seed, setups: 3}
}

// nightOutcome runs night-track. Untraced it measures one closed-loop
// phase of o.seconds at the default fan-out; traced it splits o.seconds
// into an untraced phase, a phase with the stage observer, and a serial
// phase (Parallelism 1) for the fan-out speed-up.
func nightOutcome(o options) (*outcome, error) {
	spec := nightSpecFor(o)
	base := liveHeapMB()
	recs, setups, err := setupNight(spec)
	if err != nil {
		return nil, err
	}
	setup := quantile(setups, 0.5)
	cfg := core.DefaultTrackConfig()
	if !o.traced {
		r, err := track(recs, cfg, o.seconds)
		if err != nil {
			return nil, err
		}
		mem := (liveHeapMB() - base) / float64(len(recs))
		runtime.KeepAlive(recs)
		res := &outcome{attempted: r.windows, failed: r.failed, failures: r.failures,
			metrics: r.endToEnd(setup, mem)}
		res.report = nightReport(r, res)
		return res, nil
	}
	third := o.seconds / 3
	plain, err := track(recs, cfg, third)
	if err != nil {
		return nil, err
	}
	stages := newStageRecorder()
	tcfg := cfg
	tcfg.Pipeline.Observer = stages
	traced, err := track(recs, tcfg, third)
	if err != nil {
		return nil, err
	}
	scfg := cfg
	scfg.Pipeline.Parallelism = 1
	serial, err := track(recs, scfg, third)
	if err != nil {
		return nil, err
	}
	mem := (liveHeapMB() - base) / float64(len(recs))
	runtime.KeepAlive(recs)
	res := &outcome{
		attempted: plain.windows + traced.windows + serial.windows,
		failed:    plain.failed + traced.failed + serial.failed,
		failures:  append(append(plain.failures, traced.failures...), serial.failures...),
	}
	e2ePlain, e2eTraced := plain.endToEnd(setup, mem), traced.endToEnd(setup, mem)
	windows := float64(traced.windows)
	got := []metric{
		{"core.compute_ms_p50", quantile(traced.latency, 0.5), "ms"},
		{"core.compute_ms_p95", quantile(traced.latency, 0.95), "ms"},
		{"core.compute_ms_max", quantile(traced.latency, 1), "ms"},
		{"core.alloc_mb_per_window", float64(traced.allocBytes) / windows / (1 << 20), "MB"},
		{"core.fanout_speedup", quantile(serial.latency, 0.5) / quantile(plain.latency, 0.5), "x"},
		{"runtime.gc_cpu_frac", traced.gcFrac, "ratio"},
		{"runtime.sched_latency_ms_p95", traced.schedP, "ms"},
	}
	got = append(got, stages.metrics()...)
	got = append(got, overhead(e2ePlain, e2eTraced)...)
	res.metrics = canonical(got)
	res.report = append(prefixed("traced.", e2eTraced), nightReport(traced, res)...)
	return res, nil
}

func nightReport(r *nightRun, res *outcome) []metric {
	return []metric{
		{"failed_frac", failedFrac(res.attempted, res.failed), "ratio"},
		{"windows", float64(r.windows), "count"},
	}
}

func prefixed(p string, ms []metric) []metric {
	out := make([]metric, len(ms))
	for i, m := range ms {
		out[i] = metric{p + m.name, m.value, m.unit}
	}
	return out
}
