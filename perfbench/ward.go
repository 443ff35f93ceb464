package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/fleet"
	"phasebeat/internal/metrics"
	"phasebeat/internal/otrace"
	"phasebeat/internal/store"
	"phasebeat/internal/trace"
)

const (
	windowSeconds = 60.0
	strideSeconds = 5.0
	windowPackets = int(windowSeconds * sampleRate)
	stridePackets = int(strideSeconds * sampleRate)
	tick          = time.Second / time.Duration(sampleRate)

	// Fleet settings: phasebeatd's defaults, shards = GOMAXPROCS and
	// mailbox 256, except the session buffer. At the daemon's default of
	// 64 packets (160 ms at 400 Hz) a session sheds whenever its Monitor
	// is held up for longer, and a stall of the shared host on top of an
	// 80-130 ms two-person stride does that in some runs; an archiving
	// ward's inline block seals (0.2-0.5 s) do it in every run. So every
	// ward gives each session 1024 packets (2.56 s), reports a stall as
	// latency, and reports the longest stride (core.compute_ms_max) next
	// to the 160 ms the default buffer holds.
	mailboxDepth  = 256
	sessionBuffer = 1024

	// The set-up fill keeps at most fillInFlight packets of a bed between
	// the client and its Monitor, so it would shed nothing even at the
	// daemon's default session buffer of 64.
	fillInFlight = 48
	fillChunk    = 32

	// One-person beds replay oneScenes distinct roster scenes and
	// two-person beds twoScenes, each bed from a seed-drawn start up to
	// maxOffset packets (8 s) into its scene. Every fourth bed holds two
	// persons, each replaying a scene of its own, so that a roster scene
	// the multi-person path fails on affects one bed of a run, not two.
	oneScenes = 3
	twoScenes = 3
	maxOffset = 8 * int(sampleRate)
	// generators is the number of client connections, each fed by one
	// goroutine: the benchmark host's core count.
	generators = 2

	// The archive seals 30 s blocks (phasebeatd defaults to 60 s), so that
	// every bed seals at least once in a measured phase of 30 s or more,
	// which a 60 s block would not; a 256 MiB cap keeps the newest block
	// of every bed while evicting older ones.
	blockSeconds  = 30.0
	storeMaxBytes = 256 << 20
	// queryEvery is the store reader's fixed schedule; a clinician query
	// decodes about 0.4 s of CPU's worth of blocks every other tick.
	queryEvery = 2 * time.Second
	// drainTimeout bounds the wait for the last strides after the
	// generators stop.
	drainTimeout = 30 * time.Second
)

// epoch anchors the benchmark's monotonic nanosecond clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// updatesAfter is the number of updates a Monitor publishes after n
// packets: the first when the window is full, then one per stride.
func updatesAfter(n int) uint64 {
	if n < windowPackets {
		return 0
	}
	return uint64(1 + (n-windowPackets)/stridePackets)
}

// wardSpec sizes a ward run.
type wardSpec struct {
	beds    int
	archive bool
	traced  bool
	seconds float64
	seed    int64
	// dir holds the store root of an archiving run.
	dir string
}

// bed is one monitored session. Its stream replays its scene from
// offset, re-timed from 0. The first prefill packets are sent in set-up;
// the rest are due in real time from t0.
type bed struct {
	key     string
	persons int
	scene   *scene
	offset  int
	prefill int
	total   int
	sess    *fleet.Session

	chk updateChecker
	// lat holds the measured phase's packet→update latencies in ms, and
	// part the part of the phase each update was due in.
	lat  []float64
	part []int
}

func (b *bed) packet(k int) trace.Packet {
	p := b.scene.packets[b.offset+k]
	p.Time = float64(k) / sampleRate
	return p
}

// layout places the beds. Bed i's next stride after t0 falls (i+0.5)/n
// of a stride later, so stride boundaries are spread evenly across the
// ward. On an archiving ward its stream position at t0 is a further
// (i mod 6) strides on, so the block seals are spread across the
// measured phase too. Beds 3, 7 and 11 hold two persons (bed 1 of a
// smaller ward).
func layout(spec wardSpec) ([]*bed, error) {
	n := spec.beds
	measured := int(math.Round(spec.seconds * sampleRate))
	rng := rand.New(rand.NewSource(spec.seed))
	beds := make([]*bed, n)
	byPersons := map[int][]*bed{}
	for i := range beds {
		r := int(math.Round(float64(stridePackets) * (1 - (float64(i)+0.5)/float64(n))))
		r = max(1, min(stridePackets-1, r))
		prefill := windowPackets + r
		if spec.archive {
			prefill += stridePackets * (i % 6)
		}
		persons := 1
		if i%4 == min(3, n-1) {
			persons = 2
		}
		beds[i] = &bed{
			key:     fmt.Sprintf("bed-%02d", i),
			persons: persons,
			offset:  drawStart(rng),
			prefill: prefill,
			total:   prefill + measured,
		}
		byPersons[persons] = append(byPersons[persons], beds[i])
	}
	var specs []sceneSpec
	var users [][]*bed
	for _, g := range []struct{ persons, scenes int }{{1, oneScenes}, {2, twoScenes}} {
		persons, group := g.persons, byPersons[g.persons]
		k := min(g.scenes, len(group))
		longest := 0.0
		for _, b := range group {
			longest = math.Max(longest, float64(b.offset+b.total)/sampleRate+1)
		}
		for i, sc := range pickScenes(rng, k, persons, longest) {
			specs = append(specs, sc)
			var u []*bed
			for j := i; j < len(group); j += k {
				u = append(u, group[j])
			}
			users = append(users, u)
		}
	}
	scenes, err := makeScenes(specs)
	if err != nil {
		return nil, err
	}
	for i, sc := range scenes {
		for _, b := range users[i] {
			b.scene = sc
			b.chk.sc = sc
		}
	}
	return beds, nil
}

// generator feeds its beds through one client connection.
type generator struct {
	cl   *fleet.Client
	beds []*bed
	// lag is each measured packet's send time minus its due time, and
	// ingest the time Client.Ingest took (it blocks under backpressure).
	lag, ingest []time.Duration
}

// fill sends every bed's prefill as fast as the beds absorb it without
// shedding: at most fillInFlight packets of a bed are in flight, and a
// bed whose packet completed a stride waits for that update.
func (g *generator) fill(deadline time.Time) error {
	type state struct {
		sent, next int
		wait       uint64
	}
	st := make([]state, len(g.beds))
	for i := range st {
		st[i].next = windowPackets - 1
	}
	for {
		busy, progress := false, false
		for i, b := range g.beds {
			s := &st[i]
			if s.sent >= b.prefill {
				continue
			}
			busy = true
			if s.wait > 0 {
				if b.sess.Seq() < s.wait {
					continue
				}
				s.wait = 0
			}
			room := fillInFlight - (s.sent - int(b.sess.Health().Accepted))
			n := min(room, fillChunk, b.prefill-s.sent, s.next+1-s.sent)
			if n <= 0 {
				continue
			}
			for k := s.sent; k < s.sent+n; k++ {
				if err := g.cl.Ingest(b.key, b.packet(k)); err != nil {
					return fmt.Errorf("fill %s: %w", b.key, err)
				}
			}
			s.sent += n
			if s.sent == s.next+1 {
				s.wait = updatesAfter(s.sent)
				s.next += stridePackets
			}
			progress = true
		}
		if !busy {
			return nil
		}
		if !progress {
			if time.Now().After(deadline) {
				return errors.New("fill: beds stopped absorbing packets")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// stream sends n ticks of packets, each bed's packet due at t0 + i·tick,
// open loop: a late generator sends immediately and never skips.
func (g *generator) stream(t0 int64, n int) error {
	g.lag = make([]time.Duration, 0, n*len(g.beds))
	g.ingest = make([]time.Duration, 0, n*len(g.beds))
	for i := 0; i < n; i++ {
		due := t0 + int64(i)*int64(tick)
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		for _, b := range g.beds {
			send := now()
			g.lag = append(g.lag, time.Duration(send-due))
			if err := g.cl.Ingest(b.key, b.packet(b.prefill+i)); err != nil {
				return fmt.Errorf("stream %s: %w", b.key, err)
			}
			g.ingest = append(g.ingest, time.Duration(now()-send))
		}
	}
	return nil
}

// subscribe follows one bed's updates through Session.Wait until the
// expected count has arrived or giveUp closes. t0 is read once updates
// from the measured phase arrive.
func (b *bed) subscribe(expected uint64, t0 *atomic.Int64, giveUp <-chan struct{}) {
	for b.chk.lastSeq < expected {
		snap, ok := b.sess.Wait(b.chk.lastSeq, 200*time.Millisecond)
		if !ok {
			select {
			case <-giveUp:
				return
			default:
				continue
			}
		}
		picked := now()
		b.chk.observe(snap)
		if k := int(math.Round(snap.Update.Time * sampleRate)); k >= b.prefill {
			due := t0.Load() + int64(k-b.prefill)*int64(tick)
			b.lat = append(b.lat, float64(picked-due)/1e6)
			b.part = append(b.part, partOf(float64(k-b.prefill), float64(b.total-b.prefill)))
		}
	}
}

// wardRun is one measured ward phase.
type wardRun struct {
	beds  []*bed
	gens  []*generator
	setup time.Duration

	wall, cpu      float64
	bedSeconds     float64
	memPerBed      float64
	updates        uint64
	allocBytes     uint64
	gcFrac, schedP float64
	arenaReuse     float64

	queries, queryFailed int
	queryFailures        []string
	tierQuery, rawQuery  []time.Duration
	blocksRead           []float64
	appends, seals, upds []time.Duration
	sealCount            uint64
	archiveMBPerBedH     float64
	bytesPerPacket       float64

	spans  []otrace.SpanRecord
	stages *stageRecorder
}

// runWard sets up a ward, streams it in real time for spec.seconds, and
// tears it down.
func runWard(spec wardSpec) (*wardRun, error) {
	start := time.Now()
	beds, err := layout(spec)
	if err != nil {
		return nil, err
	}
	baseHeap := liveHeapMB()
	run := &wardRun{beds: beds}

	mc := core.DefaultMonitorConfig()
	mc.NumAntennas = antennas
	cfg := fleet.Config{MailboxDepth: mailboxDepth, SessionBuffer: sessionBuffer}
	var tracer *otrace.Tracer
	if spec.traced {
		run.stages = newStageRecorder()
		mc.Pipeline.Observer = run.stages
		tracer, err = otrace.New(otrace.Config{SampleEvery: 1, SlowThreshold: -1, RingCapacity: 1 << 14})
		if err != nil {
			return nil, err
		}
		cfg.Tracer = tracer
	}
	cfg.Monitor = mc

	// Tear-down runs in this order on every path: subscribers stop, the
	// recorder detaches, the server and its connections close (nothing is
	// fed any more), then the fleet, and the store directory goes.
	var (
		giveUp         = make(chan struct{})
		giveUpOnce     sync.Once
		subWG, serveWG sync.WaitGroup
		rec            *storeRecorder
		srv            *fleet.Server
		mgr            *fleet.Manager
		storeDir       string
		tornDown       bool
	)
	stopSubs := func() { giveUpOnce.Do(func() { close(giveUp) }) }
	teardown := func() {
		if tornDown {
			return
		}
		tornDown = true
		stopSubs()
		subWG.Wait()
		if rec != nil {
			rec.detached.Store(true)
		}
		if srv != nil {
			srv.Shutdown()
			serveWG.Wait()
		}
		for _, g := range run.gens {
			g.cl.Close()
		}
		if mgr != nil {
			mgr.Close()
		}
		if storeDir != "" {
			// The store is not closed: Close would seal every bed's open
			// block, seconds of work nobody reads. Its files go with the
			// directory.
			os.RemoveAll(storeDir)
		}
	}
	defer teardown()

	var st *store.Store
	if spec.archive {
		storeDir = filepath.Join(spec.dir, fmt.Sprintf("store-%d-%d", os.Getpid(), time.Now().UnixNano()))
		// A registry, as phasebeatd passes its own: without one the store
		// keeps no counters and Stats().Seals stays 0.
		st, err = store.Open(store.Config{Dir: storeDir, BlockSeconds: blockSeconds, MaxBytes: storeMaxBytes,
			Metrics: metrics.NewRegistry()})
		if err != nil {
			return nil, err
		}
		rec = newStoreRecorder(st, blockSeconds)
		cfg.Recorder = rec
	}
	if mgr, err = fleet.New(cfg); err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv = fleet.NewServer(mgr, nil)
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		// An accept failure surfaces as a failed Dial or Open below.
		_ = srv.Serve(lis)
	}()
	for i := 0; i < generators; i++ {
		cl, err := fleet.Dial("tcp", lis.Addr().String())
		if err != nil {
			return nil, err
		}
		run.gens = append(run.gens, &generator{cl: cl})
	}
	var t0 atomic.Int64
	for i, b := range beds {
		g := run.gens[i%generators]
		if err := g.cl.Open(b.key, fleet.SessionConfig{Persons: b.persons}); err != nil {
			return nil, err
		}
		sess, ok := mgr.Get(b.key)
		if !ok {
			return nil, fmt.Errorf("session %s not open", b.key)
		}
		b.sess = sess
		g.beds = append(g.beds, b)
		subWG.Add(1)
		go func(b *bed) {
			defer subWG.Done()
			b.subscribe(updatesAfter(b.total), &t0, giveUp)
		}(b)
	}
	if err := eachGen(run.gens, func(g *generator) error {
		return g.fill(time.Now().Add(90 * time.Second))
	}); err != nil {
		return nil, err
	}
	run.setup = time.Since(start)

	// Measured phase.
	accepted0, updates0 := fleetCounts(beds)
	if run.stages != nil {
		run.stages.reset()
	}
	rt0, cpu0, alloc0 := readRuntime(), cpuSeconds(), totalAlloc()
	t0.Store(now() + int64(20*time.Millisecond))
	otT0 := otrace.Now() + int64(20*time.Millisecond)
	measured := beds[0].total - beds[0].prefill
	stopReader := make(chan struct{})
	var readerWG sync.WaitGroup
	var seals0 uint64
	if st != nil {
		seals0 = st.Stats().Seals
		rec.measuring.Store(true)
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			run.read(st, &t0, stopReader)
		}()
	}
	genErr := eachGen(run.gens, func(g *generator) error { return g.stream(t0.Load(), measured) })
	close(stopReader)
	readerWG.Wait()
	if genErr != nil {
		return nil, genErr
	}
	// Every bed's expected updates are waited for by sequence number;
	// the wait gives up only after drainTimeout, and the shortfall counts
	// as failed.
	subsDone := make(chan struct{})
	go func() {
		subWG.Wait()
		close(subsDone)
	}()
	select {
	case <-subsDone:
	case <-time.After(drainTimeout):
		stopSubs()
		<-subsDone
	}
	end := now()
	run.wall = float64(end-t0.Load()) / 1e9
	run.cpu = cpuSeconds() - cpu0
	run.allocBytes = totalAlloc() - alloc0
	run.gcFrac, run.schedP = runtimeDelta(rt0, readRuntime())
	if rec != nil {
		rec.measuring.Store(false)
		run.sealCount = st.Stats().Seals - seals0
	}
	accepted1, updates1 := fleetCounts(beds)
	run.bedSeconds = float64(accepted1-accepted0) / sampleRate
	run.updates = updates1 - updates0
	run.memPerBed = (liveHeapMB() - baseHeap) / float64(len(beds))
	if as := mgr.ArenaStats(); as.Allocs+as.Reuses > 0 {
		run.arenaReuse = float64(as.Reuses) / float64(as.Allocs+as.Reuses)
	}
	for _, b := range beds {
		b.chk.finish(updatesAfter(b.total))
	}
	if st != nil {
		run.archiveStats(st, storeDir)
	}
	teardown()
	if rec != nil {
		run.appends, run.seals, run.upds = rec.timings()
	}
	for _, s := range tracer.Spans() {
		if s.StartNanos >= otT0 {
			run.spans = append(run.spans, s)
		}
	}
	return run, nil
}

// eachGen runs fn on every generator concurrently and returns the first
// error.
func eachGen(gens []*generator, fn func(*generator) error) error {
	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g *generator) {
			defer wg.Done()
			errs[i] = fn(g)
		}(i, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fleetCounts sums the packets accepted and updates published so far.
func fleetCounts(beds []*bed) (accepted, updates uint64) {
	for _, b := range beds {
		accepted += b.sess.Health().Accepted
		updates += b.sess.Seq()
	}
	return accepted, updates
}

// read is the archive's reader: every queryEvery it alternates a
// dashboard query (a bed's whole span, automatic tier) and a clinician
// query (a bed's last 60 s, raw tier, which decodes sealed blocks).
func (r *wardRun) read(st *store.Store, t0 *atomic.Int64, stop <-chan struct{}) {
	tk := time.NewTicker(queryEvery)
	defer tk.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-tk.C:
		}
		b := r.beds[(i/2)%len(r.beds)]
		r.queries++
		begin := time.Now()
		if i%2 == 0 {
			res, err := st.Range(b.key, 0, 0, "")
			r.tierQuery = append(r.tierQuery, time.Since(begin))
			if err != nil || len(res.Wave) == 0 {
				r.queryFail("tier query %s: %v", b.key, err)
			}
			continue
		}
		k := b.prefill + int((now()-t0.Load())/int64(tick))
		from := math.Max(0, float64(k)/sampleRate-windowSeconds)
		res, err := st.Range(b.key, from, 0, store.RawTier)
		r.rawQuery = append(r.rawQuery, time.Since(begin))
		if err != nil || len(res.Samples) == 0 {
			r.queryFail("raw query %s: %v", b.key, err)
			continue
		}
		r.blocksRead = append(r.blocksRead, float64(res.BlocksRead))
	}
}

func (r *wardRun) queryFail(format string, args ...any) {
	r.queryFailed++
	if len(r.queryFailures) < 4 {
		r.queryFailures = append(r.queryFailures, fmt.Sprintf(format, args...))
	}
}

// archiveStats sizes the archive: retained sealed bytes plus the tail
// logs, per bed-hour of retained stream.
func (r *wardRun) archiveStats(st *store.Store, root string) {
	var sealed, tail int64
	var seconds, sealedPackets float64
	for _, si := range st.Sessions() {
		sealed += si.Bytes
		seconds += si.To - si.From
		sealedPackets += (si.To-si.From)*sampleRate - float64(si.Packets)
	}
	for _, b := range r.beds {
		if fi, err := os.Stat(filepath.Join(root, url.PathEscape(b.key), "tail.pblog")); err == nil {
			tail += fi.Size()
		}
	}
	if seconds > 0 {
		r.archiveMBPerBedH = float64(sealed+tail) / (1 << 20) / (seconds / 3600)
	}
	if sealedPackets > 0 {
		r.bytesPerPacket = float64(sealed) / sealedPackets
	}
}

// latencies pools every bed's measured latencies (ms) and their parts.
func (r *wardRun) latencies() (ms []float64, part []int) {
	for _, b := range r.beds {
		ms = append(ms, b.lat...)
		part = append(part, b.part...)
	}
	return ms, part
}

// checks sums the output checks: every expected update and every query.
func (r *wardRun) checks() (attempted, failed int, failures []string) {
	for _, b := range r.beds {
		attempted += int(updatesAfter(b.total))
		failed += b.chk.failed
		for _, f := range b.chk.failures {
			failures = append(failures, b.key+": "+f)
		}
	}
	return attempted + r.queries, failed + r.queryFailed, append(failures, r.queryFailures...)
}

// endToEnd reports the user-visible metrics.
func (r *wardRun) endToEnd() []metric {
	lat, part := r.latencies()
	return []metric{
		{"update_p50_ms", phaseQuantile(lat, part, 0.5), "ms"},
		{"update_p95_ms", phaseQuantile(lat, part, 0.95), "ms"},
		{"sessions_per_core", r.bedSeconds / r.cpu, "session-s/cpu-s"},
		{"session_mem_mb", r.memPerBed, "MB"},
		{"realtime_x", r.bedSeconds / r.wall, "CSI-s/wall-s"},
		{"setup_s", r.setup.Seconds(), "s"},
	}
}

// genTimes pools the generators' lag and ingest timings.
func (r *wardRun) genTimes() (lag, ingest []time.Duration) {
	for _, g := range r.gens {
		lag = append(lag, g.lag...)
		ingest = append(ingest, g.ingest...)
	}
	return lag, ingest
}
