package dsmcc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// Broadcaster transmits a Carousel cyclically at a fixed rate over
// virtual time. It is the timing model of the broadcast channel: rather
// than emitting an event per TS packet (unworkable at scale), it exposes
// the deterministic position of the cyclic stream and schedules one
// event per requested file delivery, which is byte-exact with respect to
// the Layout (a test cross-checks this against streaming the real
// encoded bytes).
type Broadcaster struct {
	clk  simtime.Clock
	rate float64 // bits per second (the β of the paper)

	mu           sync.Mutex
	car          *Carousel
	layout       *Layout
	origin       time.Time // when byte position 0 of the current layout aired
	started      bool
	pending      []File
	pendingSet   bool
	commitTimer  simtime.Timer
	genListeners simtime.Listeners[func(gen uint32, at time.Time)]
	// airedWire accumulates the wire bytes broadcast by generations that
	// have already been replaced; the live generation's contribution is
	// its stream position (telemetry).
	airedWire    int64
	commits      *obs.Counter
	delivered    *obs.Counter
	deltaBytes   *obs.Counter
	deltaModules *obs.Counter
	savedBytes   *obs.Counter
	cacheServed  *obs.Counter
}

// Instrument registers broadcast telemetry against reg: cumulative
// wire bytes aired, carousel cycle time, generation number, and commit
// / file-delivery counters.
func (b *Broadcaster) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	b.mu.Lock()
	b.commits = reg.Counter("oddci_dsmcc_updates_committed_total", "Carousel content updates committed at cycle boundaries")
	b.delivered = reg.Counter("oddci_dsmcc_file_deliveries_total", "Receiver file deliveries completed")
	b.deltaBytes = reg.Counter("oddci_dsmcc_delta_air_bytes_total", "Wire bytes of delta re-airs (DII + changed modules) across commits")
	b.deltaModules = reg.Counter("oddci_dsmcc_delta_modules_total", "Changed modules carried by delta re-airs across commits")
	b.savedBytes = reg.Counter("oddci_dsmcc_reair_saved_bytes_total", "Wire bytes a full re-air would have cost beyond the delta, across commits")
	b.cacheServed = reg.Counter("oddci_dsmcc_cache_deliveries_total", "File deliveries satisfied from a receiver chunk cache at DII time")
	b.mu.Unlock()
	reg.GaugeFunc("oddci_dsmcc_broadcast_bytes", "Cumulative wire bytes aired by the carousel", func() float64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		if !b.started {
			return 0
		}
		return float64(b.airedWire + b.positionLocked(b.clk.Now()))
	})
	reg.GaugeFunc("oddci_dsmcc_cycle_seconds", "Air time of one full carousel cycle", func() float64 {
		return b.CycleDuration().Seconds()
	})
	// The generation gauge reflects the raw uint32 and saws back to 0
	// when a long-lived carousel wraps; treat it as an identifier, not a
	// monotone series (oddci_dsmcc_updates_committed_total is the
	// monotone one). Receivers compare generations with NewerGeneration.
	reg.GaugeFunc("oddci_dsmcc_generation", "Carousel generation on air (wraps at 2^32; compare with serial-number arithmetic)", func() float64 {
		return float64(b.Generation())
	})
}

// NewBroadcaster wraps car for transmission at rateBps.
func NewBroadcaster(clk simtime.Clock, car *Carousel, rateBps float64) (*Broadcaster, error) {
	if rateBps <= 0 {
		return nil, errors.New("dsmcc: broadcast rate must be positive")
	}
	return &Broadcaster{clk: clk, rate: rateBps, car: car}, nil
}

// airTime converts wire bytes to transmission duration at the broadcast
// rate.
func (b *Broadcaster) airTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) * 8 / b.rate * float64(time.Second))
}

// Start loads the initial contents and begins cycling immediately.
func (b *Broadcaster) Start(files []File) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.started {
		return errors.New("dsmcc: broadcaster already started")
	}
	if err := b.car.SetFiles(files); err != nil {
		return err
	}
	l, err := b.car.Layout()
	if err != nil {
		return err
	}
	b.layout = l
	b.origin = b.clk.Now()
	b.started = true
	return nil
}

// Generation returns the generation currently on air.
func (b *Broadcaster) Generation() uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.layout == nil {
		return 0
	}
	return b.layout.Generation
}

// CycleDuration returns the air time of one full cycle of the current
// layout.
func (b *Broadcaster) CycleDuration() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.layout == nil {
		return 0
	}
	return b.airTime(b.layout.CycleWire)
}

// positionLocked returns the wire-byte position of the stream at t.
func (b *Broadcaster) positionLocked(t time.Time) int64 {
	elapsed := t.Sub(b.origin)
	if elapsed < 0 {
		return 0
	}
	return int64(elapsed.Seconds() * b.rate / 8)
}

// Update replaces the carousel contents at the next cycle boundary, as a
// real playout server would (receivers mid-read of the old generation
// finish their cycle). Successive updates before the boundary coalesce;
// the last one wins. Like Carousel.SetFiles, it takes its own copy of
// changed payloads: the caller may reuse its slices as soon as Update
// returns.
func (b *Broadcaster) Update(files []File) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.started {
		return errors.New("dsmcc: broadcaster not started")
	}
	b.pending = b.car.own(files)
	if b.pendingSet {
		return nil // commit already scheduled
	}
	b.pendingSet = true
	now := b.clk.Now()
	pos := b.positionLocked(now)
	w := b.layout.CycleWire
	boundary := (pos/w + 1) * w
	delay := b.origin.Add(b.airTime(boundary)).Sub(now)
	b.commitTimer = b.clk.AfterFunc(delay, b.commit)
	return nil
}

// commit applies the pending update at a cycle boundary.
func (b *Broadcaster) commit() {
	b.mu.Lock()
	files := b.pending
	b.pending = nil
	b.pendingSet = false
	if err := b.car.setOwned(files); err != nil {
		b.mu.Unlock()
		panic(fmt.Sprintf("dsmcc: committing validated update failed: %v", err))
	}
	b.airedWire += b.positionLocked(b.clk.Now())
	l, err := b.car.Layout()
	if err != nil {
		b.mu.Unlock()
		panic(fmt.Sprintf("dsmcc: layout of committed update failed: %v", err))
	}
	b.layout = l
	b.origin = b.clk.Now()
	b.commits.Inc()
	// Delta accounting: what this commit costs to re-air (DII + changed
	// modules) versus the full cycle a delta-unaware head-end would burn.
	b.deltaBytes.Add(l.DeltaWire)
	b.deltaModules.Add(int64(l.ChangedModules))
	if saved := l.CycleWire - l.DeltaWire; saved > 0 {
		b.savedBytes.Add(saved)
	}
	gen := l.Generation
	at := b.origin
	listeners := b.genListeners.Snapshot()
	b.mu.Unlock()
	for _, fn := range listeners {
		fn(gen, at)
	}
}

// OnGeneration registers fn to run whenever a new generation goes on
// air. It returns a cancel function. fn runs on the clock's event loop;
// listeners fire in registration order.
func (b *Broadcaster) OnGeneration(fn func(gen uint32, at time.Time)) (cancel func()) {
	return b.genListeners.Add(fn)
}

// ErrNoSuchFile reports a RequestFile against a name absent from the
// carousel directory.
var ErrNoSuchFile = errors.New("dsmcc: no such file in carousel")

// RequestFile asks for the named file as a receiver that starts
// listening now would obtain it. fn is invoked exactly once with the
// file data and delivery time, or with err != nil if the file
// disappears from the carousel before delivery. If the carousel content
// changes mid-read (version bump), the read restarts against the new
// generation, exactly as a receiver re-acquiring a new module version
// would.
//
// The delivered slice is the carousel's own buffer for that version,
// shared by every receiver: fn must treat it as read-only. Its capacity
// equals its length, so appending to it copies rather than writing into
// the shared bytes.
func (b *Broadcaster) RequestFile(name string, strategy ReceiverStrategy, fn func(data []byte, at time.Time, err error)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.started {
		now := b.clk.Now()
		b.clk.AfterFunc(0, func() { fn(nil, now, errors.New("dsmcc: broadcaster not started")) })
		return
	}
	b.scheduleDeliveryLocked(name, strategy, func(data []byte, _ ModuleHash, at time.Time, err error) {
		fn(data, at, err)
	})
}

// RequestFileCached is RequestFile for a receiver holding a persistent
// chunk cache. If the cache already holds the named module's current
// content (by hash), delivery completes as soon as the next DII airs —
// the receiver needs only the directory to learn its local bytes are
// current, which is what shrinks a re-stage from I/β to changed/β.
// Otherwise the read proceeds on the normal cyclic schedule and the
// delivered bytes are published into the cache for next time. Against a
// pre-hash carousel (no hash extension) this degrades to RequestFile
// exactly. Delivered bytes are read-only, as for RequestFile: they are
// the carousel's buffer or the cache's entry.
func (b *Broadcaster) RequestFileCached(name string, cache *ChunkCache, strategy ReceiverStrategy, fn func(data []byte, at time.Time, err error)) {
	if cache == nil {
		b.RequestFile(name, strategy, fn)
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.started {
		now := b.clk.Now()
		b.clk.AfterFunc(0, func() { fn(nil, now, errors.New("dsmcc: broadcaster not started")) })
		return
	}
	b.scheduleCachedLocked(name, cache, strategy, fn)
}

func (b *Broadcaster) scheduleCachedLocked(name string, cache *ChunkCache, strategy ReceiverStrategy, fn func([]byte, time.Time, error)) {
	now := b.clk.Now()
	e, ok := b.layout.Entry(name)
	if !ok {
		b.clk.AfterFunc(0, func() { fn(nil, now, ErrNoSuchFile) })
		return
	}
	var cached []byte
	hit := false
	if e.Hash != 0 {
		cached, hit = cache.Get(e.Hash)
	}
	if !hit {
		// Air path; publish the delivered bytes for future reads. They
		// are the carousel's immutable buffer, filed under the hash the
		// carousel recorded for them, so the cache needs no copy.
		b.scheduleDeliveryLocked(name, strategy, func(d []byte, h ModuleHash, at time.Time, err error) {
			if err == nil {
				cache.putShared(h, d)
			}
			fn(d, at, err)
		})
		return
	}
	// Cache hit: done once the next DII airs and confirms the hash.
	version := e.Version
	pos := b.positionLocked(now)
	w := b.layout.CycleWire
	k := pos / w
	done := k*w + b.layout.DIIWire
	if pos-k*w > 0 {
		done += w // mid-cycle: the next DII starts a cycle later
	}
	at := b.origin.Add(b.airTime(done))
	delay := at.Sub(now)
	if delay < 0 {
		delay = 0
	}
	b.clk.AfterFunc(delay, func() {
		b.mu.Lock()
		cur, ok := b.layout.Entry(name)
		switch {
		case !ok:
			b.mu.Unlock()
			fn(nil, b.clk.Now(), ErrNoSuchFile)
			return
		case cur.Version != version:
			// Content changed before the DII aired: re-evaluate — the
			// new content may be cached too.
			b.scheduleCachedLocked(name, cache, strategy, fn)
			b.mu.Unlock()
			return
		}
		delivered, served := b.delivered, b.cacheServed
		b.mu.Unlock()
		delivered.Inc()
		served.Inc()
		fn(cached, b.clk.Now(), nil)
	})
}

// scheduleDeliveryLocked delivers the named file's shared buffer, and
// the content hash the carousel recorded for it, on the cyclic schedule.
func (b *Broadcaster) scheduleDeliveryLocked(name string, strategy ReceiverStrategy, fn func([]byte, ModuleHash, time.Time, error)) {
	now := b.clk.Now()
	e, ok := b.layout.Entry(name)
	if !ok {
		b.clk.AfterFunc(0, func() { fn(nil, 0, now, ErrNoSuchFile) })
		return
	}
	version := e.Version
	pos := b.positionLocked(now)
	done, _ := b.layout.NextCompletion(name, pos, strategy)
	at := b.origin.Add(b.airTime(done))
	delay := at.Sub(now)
	if delay < 0 {
		delay = 0
	}
	b.clk.AfterFunc(delay, func() {
		b.mu.Lock()
		cur, ok := b.layout.Entry(name)
		switch {
		case !ok:
			b.mu.Unlock()
			fn(nil, 0, b.clk.Now(), ErrNoSuchFile)
			return
		case cur.Version != version:
			// Content changed under the read: restart on the new
			// generation.
			b.scheduleDeliveryLocked(name, strategy, fn)
			b.mu.Unlock()
			return
		}
		data, h, _ := b.car.file(name)
		delivered := b.delivered
		b.mu.Unlock()
		delivered.Inc()
		fn(data, h, b.clk.Now(), nil)
	})
}
