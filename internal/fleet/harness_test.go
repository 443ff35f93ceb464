package fleet

import (
	"runtime"
	"testing"

	"phasebeat/internal/metrics"
)

// TestRunHarnessSmoke runs a small S×R load with churn and checks the
// report card end to end: every session delivered, nothing unaccounted,
// and churn visibly recycling arena slabs.
func TestRunHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness")
	}
	reg := metrics.NewRegistry()
	cfg := testHarnessConfig()
	cfg.Sessions = 16
	cfg.Shards = 2
	cfg.Feeders = 4
	cfg.Seconds = 12
	cfg.ChurnFraction = 0.25
	cfg.Metrics = reg

	res, err := RunHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())

	if res.Packets == 0 || res.Updates == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if res.MinSessionUpdates == 0 {
		t.Fatalf("a session starved: %s", res)
	}
	if res.Churned == 0 {
		t.Fatalf("churn fraction %.2f churned nothing", cfg.ChurnFraction)
	}
	if res.Arena.Reuses == 0 {
		t.Fatalf("churn reused no arena slabs: %s", res)
	}
	if res.Density <= 0 {
		t.Fatalf("no density computed: %s", res)
	}
	// Quarantine should be silent on clean simulated input; shedding is
	// legal (drop-on-backlog is the design) but must be accounted.
	if q := res.Health.Quarantined(); q != 0 {
		t.Fatalf("clean input quarantined %d packets: %+v", q, res.Health)
	}

	// The metrics surface agrees with the report card even after close.
	if v := gaugeValue(t, reg, "fleet.sessions"); v != 0 {
		t.Fatalf("fleet.sessions = %v after harness close", v)
	}
	opened := gaugeValue(t, reg, "fleet.sessions.opened")
	if want := float64(cfg.Sessions + res.Churned); opened != want {
		t.Fatalf("fleet.sessions.opened = %v, want %v", opened, want)
	}
}

// TestRunHarnessCountsEveryStride pins the end of a harness run at the
// paper's rate: on one core the feed finishes long before the monitors
// do, and every stride still queued then must be processed and counted
// before teardown. A settle that polled the processed-packet counter took
// a stalled counter — one stride running — for a finished fleet, and the
// teardown abandoned the remaining strides.
func TestRunHarnessCountsEveryStride(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const sessions = 4
	res, err := RunHarness(HarnessConfig{
		Sessions:      sessions,
		Shards:        1,
		Feeders:       1,
		SampleRate:    400,
		Seconds:       36,
		WindowSeconds: 20,
		StrideSeconds: 4,
		Antennas:      2,
		Subcarriers:   30,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	// The first update needs a full window, then one per stride.
	const perSession = (36-20)/4 + 1
	if res.MinSessionUpdates != perSession || res.Updates != sessions*perSession {
		t.Fatalf("got %d updates (min %d/session), want %d per session: %s",
			res.Updates, res.MinSessionUpdates, perSession, res)
	}
	if res.Health.PacketsDropped != 0 {
		t.Fatalf("harness shed %d packets", res.Health.PacketsDropped)
	}
}

// TestRunHarnessRejectsStarvingChurn pins the config guard: churned
// sessions must get at least window+stride of stream or the run reports
// sessions that can never produce an update.
func TestRunHarnessRejectsStarvingChurn(t *testing.T) {
	cfg := testHarnessConfig()
	cfg.Seconds = 6 // churned sessions would get 4 s < 4+1
	cfg.ChurnFraction = 0.5
	if _, err := RunHarness(cfg); err == nil {
		t.Fatal("starving churn config accepted")
	}
}

// BenchmarkFleetDensity is the tracked daemon-scale benchmark: its
// sessions/core extra metric is the headline density number recorded in
// bench/baseline.json — how many real-time 30 Hz sessions one core
// sustains with churn enabled.
func BenchmarkFleetDensity(b *testing.B) {
	cfg := testHarnessConfig()
	cfg.Sessions = 32
	cfg.Shards = 4
	cfg.Feeders = 4
	cfg.Seconds = 12
	cfg.ChurnFraction = 0.25
	density := 0.0
	for i := 0; i < b.N; i++ {
		res, err := RunHarness(cfg)
		if err != nil {
			b.Fatal(err)
		}
		density = res.Density
	}
	b.ReportMetric(density, "sessions/core")
}
