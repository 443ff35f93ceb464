package core

import (
	"math"
	"math/rand"
	"testing"

	"phasebeat/internal/csisim"
	"phasebeat/internal/trace"
)

// BenchmarkPipelineProcess measures batch pipeline throughput in
// packets/sec over a one-minute default-rate trace, serial (Parallelism 1)
// versus fanned across every core (Parallelism 0 = GOMAXPROCS). The case
// names do not depend on the core count, so a baseline entry means the
// same configuration on every machine; under -cpu 1 the two tie.
func BenchmarkPipelineProcess(b *testing.B) {
	sim, err := csisim.FixedRatesScenario([]float64{17}, 33)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Generate(60)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"fanout", 0},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Parallelism = bc.workers
			proc, err := NewProcessor(WithConfig(cfg), WithPersons(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := proc.Process(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
		})
	}
}

// BenchmarkQuarantinePush measures the Monitor's per-packet ingest hot
// path: quarantine validation (shape, finiteness, monotonic time) plus
// the ring-cache update of the incremental engine. This is the path
// every live packet crosses, so it must stay allocation-free and in the
// hundreds of nanoseconds.
func BenchmarkQuarantinePush(b *testing.B) {
	cfg := DefaultMonitorConfig()
	proc, err := NewProcessor(WithConfig(cfg.Pipeline), WithPersons(cfg.Persons))
	if err != nil {
		b.Fatal(err)
	}
	eng := newStrideEngine(&cfg, proc)
	sim, err := csisim.FixedRatesScenario([]float64{17}, 11)
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]trace.Packet, 4096)
	for i := range pool {
		pool[i] = sim.NextPacket()
	}
	dt := 1 / cfg.SampleRate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycle the pool but keep timestamps monotonic, or the wrap
		// would route every later packet into the rejection path.
		p := pool[i%len(pool)]
		p.Time = float64(i) * dt
		if v, _ := eng.push(p); v != pushAccepted {
			b.Fatalf("packet %d rejected: %v", i, v)
		}
	}
}

// BenchmarkDWTDenoise measures the wavelet band-extraction stage over a
// one-minute calibrated series at the default 20 Hz estimation rate.
func BenchmarkDWTDenoise(b *testing.B) {
	cfg := DefaultConfig()
	fs := 400.0 / float64(cfg.DownsampleFactor)
	n := int(60 * fs)
	series := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for t := range series {
		ti := float64(t) / fs
		series[t] = math.Sin(2*math.Pi*0.28*ti) + 0.2*math.Sin(2*math.Pi*1.8*ti) + 0.05*rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DenoiseDWT(series, fs, &cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateStage isolates the estimate stage's per-stride cost
// from smoothing: the exact estimators (full correlation + EigSym
// root-MUSIC, full DWT) against the incremental path (streaming
// correlation rank-one updates + subspace tracking, DWT boundary-state
// reuse) at the default operating point — 60 s window, 5 s stride, 20 Hz
// estimation rate, 30 subcarriers, 2 persons. Every variant pays the same
// window-shift cost per iteration, so the deltas are pure estimator work.
func BenchmarkEstimateStage(b *testing.B) {
	const (
		rows     = 30
		nDec     = 1200 // 60 s at 20 Hz
		dSettle  = 1149 // settled prefix at the default smoothing margin
		slideDec = 100  // 5 s stride
		fs       = 20.0
	)
	// 64 strides of signal, periodic so the window can wrap seamlessly:
	// every tone's period divides the 320 s pool. The benchmark loop just
	// re-slices window views into this pool, so iterations pay zero fixture
	// cost and the deltas below are pure estimator work.
	const pool = 64 * slideDec
	cfg := DefaultConfig()
	cfg.EstimateRefreshEvery = 8

	// Two stationary breathing tones plus measurement noise; each
	// subcarrier sees them with its own phase and mix, like calibrated
	// CSI. The noise is drawn once per pool index, so the wrapped window
	// stays self-consistent. Without it the correlation matrix is
	// rank-deficient and root-MUSIC's roots sit exactly on the unit
	// circle — an unrealistically hard numerical corner.
	rng := rand.New(rand.NewSource(11))
	full := make([][]float64, rows)
	for r := range full {
		full[r] = make([]float64, pool+nDec)
		pr := float64(r) * 0.7
		for k := 0; k < pool; k++ {
			ti := float64(k) / fs
			full[r][k] = math.Sin(2*math.Pi*0.20*ti+pr) +
				0.8*math.Sin(2*math.Pi*0.3125*ti+1.3*pr) +
				0.05*rng.NormFloat64()
		}
		copy(full[r][pool:], full[r][:nDec])
	}
	// window re-points the calib views at stride i's window start.
	window := func(calib [][]float64, i int) {
		s := (i % 64) * slideDec
		for r := range calib {
			calib[r] = full[r][s : s+nDec]
		}
	}

	b.Run("music-exact", func(b *testing.B) {
		calib := make([][]float64, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			window(calib, i)
			if _, err := EstimateBreathingMultiRootMUSIC(calib, fs, 2, &cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("music-incremental", func(b *testing.B) {
		calib := make([][]float64, rows)
		window(calib, 0)
		es := newEstimateState(&cfg, 2)
		if !es.music.advance(es, calib, nil, fs, nDec, dSettle, -1) {
			b.Fatal("music stream failed to anchor")
		}
		r, err := es.music.sc.Matrix()
		if err != nil {
			b.Fatal(err)
		}
		if err := es.music.tracker.Refresh(r); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			window(calib, i+1)
			if !es.music.advance(es, calib, nil, fs, nDec, dSettle, slideDec) {
				b.Fatal("music stream lost alignment")
			}
			es.music.usable = true
			es.exactStride = false
			if _, ok := es.tryMusic(false); !ok {
				b.Fatal("tracked estimate fell back to exact")
			}
		}
	})
	b.Run("dwt-exact", func(b *testing.B) {
		calib := make([][]float64, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			window(calib, i)
			if _, err := DenoiseDWT(calib[0], fs, &cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dwt-incremental", func(b *testing.B) {
		calib := make([][]float64, rows)
		window(calib, 0)
		sel := &SubcarrierSelection{Selected: 0}
		var ds dwtStream
		if !ds.advance(&cfg, calib, sel, fs, nDec, dSettle, -1) {
			b.Fatal("dwt stream failed to anchor")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			window(calib, i+1)
			if !ds.advance(&cfg, calib, sel, fs, nDec, dSettle, slideDec) {
				b.Fatal("dwt stream lost alignment")
			}
			ds.usable = true
			if _, ok := ds.tryDWT(false); !ok {
				b.Fatal("incremental bands unavailable")
			}
		}
	})
}

// BenchmarkMonitorStride measures one streaming stride at the default
// monitor operating point (60 s window, 5 s stride, 400 Hz): the
// incremental ring-buffer engine against the from-scratch full-recompute
// baseline. The samples/stride metric is the per-subcarrier count of
// samples actually smoothed — the acceptance criterion is that the
// incremental engine processes at least 5× fewer.
func BenchmarkMonitorStride(b *testing.B) {
	cfg := DefaultMonitorConfig()
	window := int(cfg.WindowSeconds * cfg.SampleRate)
	stride := int(cfg.UpdateEverySeconds * cfg.SampleRate)

	// Pre-generate a pool covering the window plus several strides; the
	// benchmark loop cycles through it. The wrap-around discontinuity can
	// make a window look non-stationary, so pipeline errors are tolerated —
	// the measured smoothing work is identical either way.
	sim, err := csisim.FixedRatesScenario([]float64{17}, 7)
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]trace.Packet, window+16*stride)
	for i := range pool {
		pool[i] = sim.NextPacket()
	}

	modes := []struct {
		name string
		full bool
	}{
		{"incremental", false},
		{"full-recompute", true},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			c := cfg
			c.FullRecompute = mode.full
			proc, err := NewProcessor(WithConfig(c.Pipeline), WithPersons(c.Persons))
			if err != nil {
				b.Fatal(err)
			}
			eng := newStrideEngine(&c, proc)
			idx := 0
			next := func() trace.Packet {
				p := pool[idx]
				idx++
				if idx == len(pool) {
					idx = 0
				}
				return p
			}
			for i := 0; i < window; i++ {
				eng.push(next())
			}
			if _, err := eng.process(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < stride; k++ {
					eng.push(next())
				}
				eng.process()
			}
			b.StopTimer()
			b.ReportMetric(float64(stride)*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
			b.ReportMetric(float64(eng.lastSmoothedSamples), "samples/stride")
		})
	}
}
