package main

import (
	"sync"

	"phasebeat/internal/core"
)

// stageNames are the pipeline's stages in graph order.
var stageNames = []string{
	core.StageExtract, core.StageSmooth, core.StageGate, core.StageEnvDetect,
	core.StageSegment, core.StageDownsample, core.StageSelect, core.StageDWT,
	core.StageEstimate,
}

// stageRecorder is a StageObserver shared by every session Monitor (or
// every TrackRates window), so it locks around its tallies.
type stageRecorder struct {
	mu       sync.Mutex
	ms       map[string][]float64
	smoothed []float64
}

func newStageRecorder() *stageRecorder {
	return &stageRecorder{ms: make(map[string][]float64)}
}

func (r *stageRecorder) OnStageStart(string) {}

func (r *stageRecorder) OnStageEnd(s core.StageStats) {
	r.mu.Lock()
	r.ms[s.Stage] = append(r.ms[s.Stage], float64(s.Duration.Nanoseconds())/1e6)
	if s.Stage == core.StageSmooth {
		r.smoothed = append(r.smoothed, float64(s.Samples))
	}
	r.mu.Unlock()
}

// reset drops what was recorded so far (the set-up strides).
func (r *stageRecorder) reset() {
	r.mu.Lock()
	r.ms = make(map[string][]float64)
	r.smoothed = nil
	r.mu.Unlock()
}

// metrics reports the median duration of every stage and the median
// smoothed sample count per run of the smooth stage.
func (r *stageRecorder) metrics() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]metric, 0, len(stageNames)+1)
	for _, s := range stageNames {
		out = append(out, metric{"core.stage." + s + ".ms_p50", quantile(r.ms[s], 0.5), "ms"})
	}
	return append(out, metric{"core.smoothed_samples_per_stride", quantile(r.smoothed, 0.5), "count"})
}
