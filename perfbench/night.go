package main

import (
	"fmt"
	"math/rand"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/trace"
)

// nightSpec sizes a night-track run.
type nightSpec struct {
	traces       int
	traceSeconds float64
	seed         int64
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
}

// recording is one pre-recorded sleep-study trace.
type recording struct {
	tr *trace.Trace
	sc *scene
}

// setupNight simulates the recordings: spec.traces roster scenes chosen
// by the seed, each cut from a seed-drawn start up to maxOffset packets
// in. It runs spec.setups times and keeps the last fixture; every
// repetition builds the same recordings.
func setupNight(spec nightSpec) ([]recording, []float64, error) {
	var recs []recording
	var times []float64
	for rep := 0; rep < max(1, spec.setups); rep++ {
		recs = nil
		start := time.Now()
		rng := rand.New(rand.NewSource(spec.seed))
		specs := pickScenes(rng, spec.traces, 1, 0)
		offsets := make([]int, spec.traces)
		for i := range specs {
			offsets[i] = drawStart(rng)
			specs[i].seconds = spec.traceSeconds + float64(offsets[i])/sampleRate
		}
		scenes, err := makeScenes(specs)
		if err != nil {
			return nil, nil, err
		}
		for i, sc := range scenes {
			recs = append(recs, recording{
				tr: &trace.Trace{
					SampleRate:     sampleRate,
					NumAntennas:    antennas,
					NumSubcarriers: subcarriers,
					Packets:        sc.packets[offsets[i]:],
				},
				sc: sc,
			})
		}
		times = append(times, time.Since(start).Seconds())
	}
	return recs, times, nil
}

// nightRun is one closed-loop phase of TrackRates calls.
type nightRun struct {
	windows int
	// latency holds each window's wall time in ms, csi the seconds of
	// recording it analysed, and part the part of the phase it started in.
	latency    []float64
	csi        []float64
	part       []int
	cpu        float64
	csiSeconds float64
	allocBytes uint64
	gcFrac     float64
	schedP     float64

	failed   int
	failures []string
}

// track steps through the recordings one analysis window at a time — one
// TrackRates call per window, stepping cfg.StrideSeconds, one call after
// another from one goroutine — until seconds have passed (the call in
// flight completes). Each window is timed on its own and checked against
// its scene's truth; it counts a recording's duration divided by its
// window count as analysed CSI.
func track(recs []recording, cfg core.TrackConfig, seconds float64) (*nightRun, error) {
	window := int(cfg.WindowSeconds * sampleRate)
	step := int(cfg.StrideSeconds * sampleRate)
	r := &nightRun{}
	rt0, cpu0, alloc0 := readRuntime(), cpuSeconds(), totalAlloc()
	start := time.Now()
	for i := 0; r.windows == 0 || time.Since(start).Seconds() < seconds; i++ {
		rec := recs[i%len(recs)]
		perTrace := (rec.tr.Len()-window)/step + 1
		from := (i / len(recs) % perTrace) * step
		sub, err := rec.tr.Slice(from, from+window)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r.part = append(r.part, partOf(t0.Sub(start).Seconds(), seconds))
		points, err := core.TrackRates(sub, cfg)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("TrackRates: %w", err)
		}
		r.windows += len(points)
		r.latency = append(r.latency, float64(d)/float64(time.Millisecond))
		r.csi = append(r.csi, rec.tr.Duration()/float64(perTrace))
		r.csiSeconds += r.csi[len(r.csi)-1]
		for _, p := range points {
			if err := checkTrack(p, rec.sc); err != nil {
				r.failed++
				if len(r.failures) < 4 {
					r.failures = append(r.failures, fmt.Sprintf("window ending %.1f s: %v", p.Time, err))
				}
			}
		}
	}
	r.cpu = cpuSeconds() - cpu0
	r.allocBytes = totalAlloc() - alloc0
	r.gcFrac, r.schedP = runtimeDelta(rt0, readRuntime())
	return r, nil
}

// endToEnd reports the user-visible metrics. An "update" here is one
// analysed window, and its latency the window's wall time. realtime_x is
// taken like the latencies, in each part of the phase and the median of
// the parts, so that a passing stall of the shared host does not move it.
func (r *nightRun) endToEnd(setup, memPerTrace float64) []metric {
	return []metric{
		{"update_p50_ms", phaseQuantile(r.latency, r.part, 0.5), "ms"},
		{"update_p95_ms", phaseQuantile(r.latency, r.part, 0.95), "ms"},
		{"sessions_per_core", r.csiSeconds / r.cpu, "session-s/cpu-s"},
		{"session_mem_mb", memPerTrace, "MB"},
		{"realtime_x", phaseRate(r.csi, r.latency, r.part) * 1e3, "CSI-s/wall-s"},
		{"setup_s", setup, "s"},
	}
}
