package main

import (
	"sync"
	"sync/atomic"
	"time"

	"phasebeat/internal/core"
	"phasebeat/internal/fleet"
	"phasebeat/internal/store"
	"phasebeat/internal/trace"
)

// storeRecorder is the benchmark's copy of phasebeatd's adapter from the
// fleet's Recorder hook to the tiered store, with timers around the store
// calls. While measuring is set it records how long each AppendPacket and
// AppendUpdate took. To attribute a seal's duration it also tells which
// appends sealed a block, by repeating the store's rule in
// Store.AppendPacket (an append seals when it lands a full block span
// after the block's first packet); the seal count itself is read from
// Store.Stats. Once detached it forwards nothing, so tear-down does not
// pay for sealing blocks nobody will read.
type storeRecorder struct {
	st           *store.Store
	blockSeconds float64

	measuring atomic.Bool
	detached  atomic.Bool

	mu   sync.Mutex
	keys map[string]*keyTimes
}

// keyTimes holds one session's timings. Packet appends for a key run on
// its shard goroutine and update appends on its drain goroutine, so each
// slice has a single writer; they are read after the fleet has closed.
type keyTimes struct {
	blockStart float64
	haveStart  bool
	appends    []time.Duration
	seals      []time.Duration
	updates    []time.Duration
}

func newStoreRecorder(st *store.Store, blockSeconds float64) *storeRecorder {
	return &storeRecorder{st: st, blockSeconds: blockSeconds, keys: make(map[string]*keyTimes)}
}

func (r *storeRecorder) key(k string) *keyTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	kt := r.keys[k]
	if kt == nil {
		kt = &keyTimes{}
		r.keys[k] = kt
	}
	return kt
}

func (r *storeRecorder) OpenSession(key string, sc fleet.SessionConfig) error {
	if r.detached.Load() {
		return nil
	}
	r.key(key)
	return r.st.OpenSession(key, store.Meta{
		SampleRate:     sc.SampleRate,
		NumAntennas:    sc.NumAntennas,
		NumSubcarriers: sc.NumSubcarriers,
		WindowSeconds:  sc.WindowSeconds,
		StrideSeconds:  sc.UpdateEverySeconds,
		Persons:        sc.Persons,
	})
}

func (r *storeRecorder) AppendPacket(key string, p trace.Packet) error {
	if r.detached.Load() {
		return nil
	}
	kt := r.key(key)
	seals := kt.haveStart && p.Time-kt.blockStart >= r.blockSeconds
	if !kt.haveStart || seals {
		// The sealing packet itself opens no block: the store seals the
		// buffer including it, and the next packet starts a new one.
		kt.blockStart, kt.haveStart = p.Time, !seals
	}
	if !r.measuring.Load() {
		return r.st.AppendPacket(key, p)
	}
	t0 := time.Now()
	err := r.st.AppendPacket(key, p)
	d := time.Since(t0)
	kt.appends = append(kt.appends, d)
	if seals {
		kt.seals = append(kt.seals, d)
	}
	return err
}

func (r *storeRecorder) AppendUpdate(key string, u core.Update) error {
	if r.detached.Load() {
		return nil
	}
	if !r.measuring.Load() {
		return r.st.AppendUpdate(key, u)
	}
	kt := r.key(key)
	t0 := time.Now()
	err := r.st.AppendUpdate(key, u)
	kt.updates = append(kt.updates, time.Since(t0))
	return err
}

func (r *storeRecorder) CloseSession(key string) error {
	if r.detached.Load() {
		return nil
	}
	return r.st.CloseSession(key)
}

// timings gathers every session's timings; call it after the fleet has
// closed.
func (r *storeRecorder) timings() (appends, seals, updates []time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, kt := range r.keys {
		appends = append(appends, kt.appends...)
		seals = append(seals, kt.seals...)
		updates = append(updates, kt.updates...)
	}
	return appends, seals, updates
}
