package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"phasebeat/internal/arena"
	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
	"phasebeat/internal/metrics"
	"phasebeat/internal/otrace"
	"phasebeat/internal/trace"
)

// HarnessConfig sizes a fleet load run: S sessions × R Hz of synthetic
// CSI, fed as fast as the Manager absorbs it. All zero fields take the
// defaults noted inline.
type HarnessConfig struct {
	// Sessions is the concurrent session count (default 64).
	Sessions int
	// Shards is the Manager shard count (default GOMAXPROCS).
	Shards int
	// Feeders is the number of producer goroutines (default GOMAXPROCS);
	// each feeds an equal slice of the sessions.
	Feeders int
	// SampleRate is the per-session packet rate in Hz (default 30).
	SampleRate float64
	// Seconds is the virtual duration fed to each session (default 16).
	Seconds float64
	// WindowSeconds and StrideSeconds configure the session monitors
	// (defaults 8 and 2) — small windows keep daemon-scale runs inside a
	// few hundred MB; real deployments use the paper's 60 s window.
	WindowSeconds, StrideSeconds float64
	// Antennas and Subcarriers shape the packets (defaults 3 and 16; the
	// simulator's 30 subcarriers are sliced down to cut memory).
	Antennas, Subcarriers int
	// ChurnFraction is the fraction of sessions closed and replaced a
	// third of the way through the feed (default 0.25; set negative for
	// none) — the open/close cycle that exercises shard-arena reuse.
	ChurnFraction float64
	// Seed seeds the synthetic scene (default 1).
	Seed int64
	// Metrics optionally receives the fleet gauges.
	Metrics *metrics.Registry
	// Recorder optionally tees the whole run into a trace archive (see
	// Config.Recorder) — phasebeatd's selftest uses this to exercise the
	// store end to end under churn.
	Recorder Recorder
	// Tracer optionally traces every ingested packet end to end (see
	// Config.Tracer) — phasebeatd's selftest uses this to verify SLO
	// burn tracking under a real load.
	Tracer *otrace.Tracer
}

// HarnessResult is the load run's report card.
type HarnessResult struct {
	Sessions, Shards, Feeders int
	// Churned counts sessions closed and replaced mid-run.
	Churned int
	// VirtualSeconds is the simulated stream duration per session,
	// WallSeconds the real time the whole run took (feed + drain).
	VirtualSeconds, WallSeconds float64
	// Packets is the number of Ingest calls that entered shard mailboxes.
	Packets uint64
	// Updates is the total updates delivered across all sessions.
	Updates uint64
	// MinSessionUpdates is the smallest update count over the sessions
	// live at the end — zero means some session starved.
	MinSessionUpdates uint64
	// Health aggregates every session, live and churned-out.
	Health core.Health
	// Arena sums Arena.Stats over the shards: Reuses > 0 is the churn
	// recycling window slabs instead of growing the heap.
	Arena arena.Stats
	// Cores is GOMAXPROCS at run time; Density is the headline number:
	// sessions × virtual seconds processed per core-second of wall time —
	// how many real-time sessions one core sustains.
	Cores   int
	Density float64
}

// String formats the report for the selftest output.
func (r HarnessResult) String() string {
	return fmt.Sprintf(
		"fleet harness: %d sessions (%d churned) × %.0fs virtual on %d shards/%d feeders: "+
			"%d packets, %d updates (min %d/session), %d dropped, %d replaced, "+
			"arena %d allocs/%d reuses, %.2fs wall on %d cores → %.1f sessions/core",
		r.Sessions, r.Churned, r.VirtualSeconds, r.Shards, r.Feeders,
		r.Packets, r.Updates, r.MinSessionUpdates,
		r.Health.PacketsDropped, r.Health.UpdatesReplaced,
		r.Arena.Allocs, r.Arena.Reuses,
		r.WallSeconds, r.Cores, r.Density)
}

// RunHarness drives a synthetic S×R load through a fresh Manager and
// reports throughput, per-session delivery, health accounting, and arena
// reuse. Every session replays the same simulated scene (the template
// packets are shared read-only — the ingest path copies CSI into columnar
// storage and never mutates the packet), so memory scales with the window
// configuration, not with the feed.
func RunHarness(cfg HarnessConfig) (HarnessResult, error) {
	if cfg.Sessions == 0 {
		cfg.Sessions = 64
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Feeders == 0 {
		cfg.Feeders = runtime.GOMAXPROCS(0)
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 30
	}
	if cfg.Seconds == 0 {
		cfg.Seconds = 16
	}
	if cfg.WindowSeconds == 0 {
		cfg.WindowSeconds = 8
	}
	if cfg.StrideSeconds == 0 {
		cfg.StrideSeconds = 2
	}
	if cfg.Antennas == 0 {
		cfg.Antennas = 3
	}
	if cfg.Subcarriers == 0 {
		cfg.Subcarriers = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Sessions < 1 || cfg.Feeders < 1 {
		return HarnessResult{}, fmt.Errorf("fleet: harness needs sessions and feeders ≥ 1")
	}
	if cfg.ChurnFraction > 0 && cfg.Seconds*2/3 < cfg.WindowSeconds+cfg.StrideSeconds {
		return HarnessResult{}, fmt.Errorf(
			"fleet: churned sessions get %.1fs of stream but need %.1fs for one update",
			cfg.Seconds*2/3, cfg.WindowSeconds+cfg.StrideSeconds)
	}

	pkts, err := templatePackets(cfg)
	if err != nil {
		return HarnessResult{}, err
	}

	// Size session buffers to the whole virtual stream: buffered packets
	// are slice headers over the shared template rows (a few tens of
	// bytes each), and a loss-free feed is what makes density measure
	// processing throughput — unpaced shedding would punch timestamp
	// gaps that re-anchor every window and starve the run of updates.
	sessionBuffer := int(cfg.Seconds*cfg.SampleRate) + 64

	mgr, err := New(Config{
		Shards:        cfg.Shards,
		SessionBuffer: sessionBuffer,
		Metrics:       cfg.Metrics,
		Recorder:      cfg.Recorder,
		Tracer:        cfg.Tracer,
		Monitor: core.MonitorConfig{
			Pipeline:           core.ConfigForRate(cfg.SampleRate),
			Persons:            1,
			SampleRate:         cfg.SampleRate,
			NumAntennas:        cfg.Antennas,
			NumSubcarriers:     cfg.Subcarriers,
			WindowSeconds:      cfg.WindowSeconds,
			UpdateEverySeconds: cfg.StrideSeconds,
		},
	})
	if err != nil {
		return HarnessResult{}, err
	}

	res := HarnessResult{
		Sessions:       cfg.Sessions,
		Shards:         cfg.Shards,
		Feeders:        cfg.Feeders,
		VirtualSeconds: cfg.Seconds,
		Cores:          runtime.GOMAXPROCS(0),
	}

	keys := make([]string, cfg.Sessions)
	for i := range keys {
		keys[i] = fmt.Sprintf("sess-%04d", i)
		if _, err := mgr.Open(keys[i], SessionConfig{}); err != nil {
			mgr.Close()
			return HarnessResult{}, err
		}
	}

	start := time.Now()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		churned  int
		packets  uint64
		feedErr  error
		perChurn = 0
	)
	if cfg.ChurnFraction > 0 {
		perChurn = int(float64(cfg.Sessions) * cfg.ChurnFraction / float64(cfg.Feeders))
	}
	churnAt := len(pkts) / 3
	for f := 0; f < cfg.Feeders; f++ {
		lo := f * cfg.Sessions / cfg.Feeders
		hi := (f + 1) * cfg.Sessions / cfg.Feeders
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(f, lo, hi int) {
			defer wg.Done()
			own := append([]string(nil), keys[lo:hi]...)
			sent := uint64(0)
			for i, p := range pkts {
				if i == churnAt && perChurn > 0 {
					// Close the head of this feeder's slice and replace
					// each with a fresh key pinned to the same shard, so
					// the reopen provably draws from the slabs the close
					// just released.
					for c := 0; c < perChurn && c < len(own); c++ {
						old := own[c]
						if _, err := mgr.CloseSession(old); err != nil {
							mu.Lock()
							feedErr = err
							mu.Unlock()
							return
						}
						fresh := sameShardKey(mgr, old, fmt.Sprintf("churn-%d-%d", f, c))
						if _, err := mgr.Open(fresh, SessionConfig{}); err != nil {
							mu.Lock()
							feedErr = err
							mu.Unlock()
							return
						}
						own[c] = fresh
					}
					mu.Lock()
					churned += minInt(perChurn, len(own))
					mu.Unlock()
				}
				for _, key := range own {
					if err := mgr.Ingest(key, p); err != nil {
						mu.Lock()
						feedErr = err
						mu.Unlock()
						return
					}
					sent++
				}
			}
			mu.Lock()
			packets += sent
			mu.Unlock()
		}(f, lo, hi)
	}
	wg.Wait()
	if feedErr != nil {
		mgr.Close()
		return HarnessResult{}, feedErr
	}

	// Finish every queued packet and stride before counting: the feed is
	// done, and Close would abandon whatever is still queued.
	mgr.Drain()

	res.MinSessionUpdates = minSessionUpdates(mgr)
	mgr.Close()

	res.WallSeconds = time.Since(start).Seconds()
	res.Churned = churned
	res.Packets = packets
	res.Updates = mgr.Updates()
	res.Health = mgr.Health()
	res.Arena = mgr.ArenaStats()
	if res.WallSeconds > 0 && res.Cores > 0 {
		res.Density = float64(res.Sessions) * res.VirtualSeconds /
			(res.WallSeconds * float64(res.Cores))
	}
	return res, nil
}

// templatePackets simulates one scene at the configured rate and slices
// every packet down to the harness subcarrier count. The slices share the
// simulator's backing arrays; sessions only ever read them.
func templatePackets(cfg HarnessConfig) ([]trace.Packet, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	env := csisim.Environment{
		CarrierHz:       csisim.DefaultCarrierHz,
		AntennaSpacingM: csisim.DefaultAntennaSpacingM,
		StaticPaths:     csisim.RandomStaticPaths(rng, 6, 3),
		TxRxDistanceM:   3,
	}
	pathDist := 4 + rng.Float64()*2
	person := csisim.RandomPerson(rng, pathDist, csisim.ReflectionGainForPath(pathDist, false))
	sim, err := csisim.New(csisim.Config{
		Env:         env,
		Persons:     []csisim.Person{person},
		SampleRate:  cfg.SampleRate,
		NumAntennas: cfg.Antennas,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	tr, err := sim.Generate(cfg.Seconds)
	if err != nil {
		return nil, err
	}
	if cfg.Subcarriers > tr.NumSubcarriers {
		return nil, fmt.Errorf("fleet: harness wants %d subcarriers, simulator emits %d",
			cfg.Subcarriers, tr.NumSubcarriers)
	}
	pkts := make([]trace.Packet, len(tr.Packets))
	for i, p := range tr.Packets {
		rows := make([][]complex128, len(p.CSI))
		for a, row := range p.CSI {
			rows[a] = row[:cfg.Subcarriers:cfg.Subcarriers]
		}
		pkts[i] = trace.Packet{Time: p.Time, CSI: rows}
	}
	return pkts, nil
}

// sameShardKey derives a fresh key that hashes onto the same shard as
// old, so churn-driven arena reuse is deterministic rather than left to
// hash luck.
func sameShardKey(m *Manager, old, salt string) string {
	target := m.shardFor(old)
	for n := 0; ; n++ {
		k := fmt.Sprintf("%s-%s-%d", old, salt, n)
		if m.shardFor(k) == target {
			return k
		}
	}
}

// minSessionUpdates scans the live sessions for the smallest delivered
// count.
func minSessionUpdates(m *Manager) uint64 {
	min := ^uint64(0)
	found := false
	for _, sh := range m.shards {
		sh.mu.RLock()
		for _, s := range sh.sessions {
			if n := s.Seq(); n < min {
				min = n
			}
			found = true
		}
		sh.mu.RUnlock()
	}
	if !found {
		return 0
	}
	return min
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
