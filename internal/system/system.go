// Package system wires a complete OddCI-DTV deployment over virtual
// time: one broadcast head-end (Controller + carousel + AIT), one
// Backend, one Provider, and a fleet of simulated set-top boxes running
// PNA Xlets under real DTV middleware. Every component is the same code
// that unit tests exercise in isolation; this package only assembles
// and starts them.
//
// The same wiring runs under the wall clock (demos) and the
// discrete-event clock (experiments), per the simtime contract.
package system

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"oddci/internal/control"
	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/core/dve"
	"oddci/internal/core/instance"
	"oddci/internal/core/pna"
	"oddci/internal/dsmcc"
	"oddci/internal/federation"
	"oddci/internal/flute"
	"oddci/internal/journal"
	"oddci/internal/middleware"
	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/stb"
	"oddci/internal/trace"
)

// Config sizes a deployment. Zero values select the paper's defaults.
type Config struct {
	Clock simtime.Clock
	// Nodes is the number of set-top boxes.
	Nodes int
	// Beta is the spare broadcast capacity in bps (default 1 Mbps).
	Beta float64
	// Delta is the per-node direct-channel capacity in bps each way
	// (default 150 kbps).
	Delta float64
	// DirectLatency is the direct channels' propagation delay.
	DirectLatency time.Duration
	// Seed drives every random stream in the deployment.
	Seed int64
	// HeartbeatPeriod is the default PNA reporting interval.
	HeartbeatPeriod time.Duration
	// MaintenancePeriod is the Controller's instance-size loop.
	MaintenancePeriod time.Duration
	// AITPeriod is the signalling repetition interval.
	AITPeriod time.Duration
	// Strategy selects the carousel receiver behaviour.
	Strategy dsmcc.ReceiverStrategy
	// StandbyFraction of nodes idle in standby; the rest are in use.
	StandbyFraction float64
	// Perf is the device performance model (default: paper calibration).
	Perf stb.PerfModel
	// InitialPowerOn is the fraction of nodes powered at Start
	// (default 1).
	InitialPowerOn float64
	// Replication runs every task on this many distinct nodes with
	// majority voting at the Backend (default 1).
	Replication int
	// TargetHeartbeatRate, if positive, lets the Controller re-tune
	// idle nodes' heartbeat periods to bound its inbound load.
	TargetHeartbeatRate float64
	// Trace, if set, records control-plane events (wakeups, joins,
	// resets, power transitions, instance lifecycle, refresh health)
	// into a timeline.
	Trace *trace.Recorder
	// Obs, if set, collects telemetry from every component
	// (oddci_controller_*, oddci_backend_*, oddci_pna_*, oddci_dve_*,
	// oddci_dsmcc_*, oddci_netsim_*).
	Obs *obs.Registry
	// Spans, if set, records end-to-end causal traces: wakeup
	// broadcasts start root spans, PNAs hang join/image-load/dve-start
	// under them, and the Backend closes each tree with
	// dispatch/lease-expiry/commit spans.
	Spans *span.Collector
	// HeadEndFaults, if set, injects failures into the Controller's
	// carousel updates (not into the receivers), exercising the
	// refresh-retry path. Start is never injected.
	HeadEndFaults *netsim.FaultPlan
	// Adversary, if set, turns the assigned fraction of nodes byzantine:
	// their result submissions are rewritten on the wire (wrong payloads,
	// forged or replayed credentials) per the plan's deterministic
	// per-node streams. The nodes run the stock worker; only their
	// uplinks lie.
	Adversary *netsim.AdversaryPlan
	// CredentialMode selects the Backend's result-credential policy
	// (default CredOff: the pre-credential wire).
	CredentialMode backend.CredentialMode
	// ResetRetransmitTicks is how many maintenance passes a destroyed
	// instance's reset stays on air before GC (default 3).
	ResetRetransmitTicks int
	// RefreshRetryBase and RefreshRetryMax bound the Controller's
	// head-end retry backoff (defaults 5s and 2min).
	RefreshRetryBase time.Duration
	RefreshRetryMax  time.Duration
	// Transport selects the broadcast substrate: the DTV DSM-CC
	// carousel (default) or the FLUTE-style IP-multicast caster of
	// §3.3.
	Transport Transport
	// DeviceMix, if non-empty, draws each node's profile from these
	// weighted specs (fractions are normalized); empty means a uniform
	// reference-STB population. This is §3's heterogeneous device
	// universe — wakeup requirements select within it.
	DeviceMix []DeviceSpec
	// StateDir, if set, makes the control plane durable: the Controller
	// journals lifecycle mutations there, and CrashController /
	// RestartController exercise a hard stop + snapshot/journal recovery
	// while the carousel keeps cycling and the devices stay up.
	StateDir string
	// ChunkCacheBytes gives every set-top box a persistent
	// content-addressed chunk cache of this size (surviving power
	// cycles), so image updates re-stage as deltas: unchanged carousel
	// modules are served locally at DII latency. Zero disables caching;
	// negative selects dsmcc.DefaultChunkCacheBytes.
	ChunkCacheBytes int64
}

// DeviceSpec is one stratum of a heterogeneous population.
type DeviceSpec struct {
	Fraction float64
	Profile  instance.DeviceProfile
}

// Transport enumerates broadcast substrates.
type Transport int

// Broadcast substrates (§3.3 enabling technologies).
const (
	TransportDTV Transport = iota
	TransportIPMulticast
)

func (c *Config) fill() error {
	if c.Clock == nil {
		return errors.New("system: clock is required")
	}
	if c.Nodes <= 0 {
		return errors.New("system: need at least one node")
	}
	if c.Beta == 0 {
		c.Beta = 1e6
	}
	if c.Delta == 0 {
		c.Delta = 150e3
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = time.Minute
	}
	if c.MaintenancePeriod <= 0 {
		c.MaintenancePeriod = time.Minute
	}
	if c.AITPeriod <= 0 {
		c.AITPeriod = middleware.DefaultAITPeriod
	}
	if c.InitialPowerOn == 0 {
		c.InitialPowerOn = 1
	}
	if c.InitialPowerOn < 0 || c.InitialPowerOn > 1 || c.StandbyFraction < 0 || c.StandbyFraction > 1 {
		return errors.New("system: fractions must be in [0,1]")
	}
	return nil
}

// System is an assembled deployment.
type System struct {
	cfg Config

	Clock       simtime.Clock
	Controller  *controller.Controller
	Provider    *federation.Federation
	Backend     *backend.Backend
	Broadcaster middleware.ObjectCarousel
	Signalling  *middleware.Signalling
	Registry    *dve.Registry
	STBs        []*stb.STB

	controllerPub ed25519.PublicKey

	mu      sync.Mutex
	store   *journal.Store                  // the live Controller's journal (Config.StateDir)
	byInst  map[instance.ID]map[uint64]bool // live busy membership, direct observation
	started bool
}

// New assembles (but does not start) a deployment.
func New(cfg Config) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	clk := cfg.Clock
	rng := rand.New(rand.NewSource(cfg.Seed))

	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("system: keygen: %w", err)
	}

	// The broadcast substrate: both implement the Controller's HeadEnd
	// and the middleware's ObjectCarousel, so the rest of the system is
	// identical either way.
	var bcast interface {
		controller.HeadEnd
		middleware.ObjectCarousel
	}
	switch cfg.Transport {
	case TransportIPMulticast:
		caster, err := flute.NewCaster(clk, cfg.Beta)
		if err != nil {
			return nil, err
		}
		bcast = caster
	default:
		car, err := dsmcc.NewCarousel(0x300, 0)
		if err != nil {
			return nil, err
		}
		b, err := dsmcc.NewBroadcaster(clk, car, cfg.Beta)
		if err != nil {
			return nil, err
		}
		b.Instrument(cfg.Obs)
		bcast = b
	}
	sig := middleware.NewSignalling(clk, cfg.AITPeriod)

	// Fault injection wraps only the Controller's transmit path; the
	// receivers keep reading whatever the carousel last committed.
	head := controller.HeadEnd(bcast)
	if cfg.HeadEndFaults != nil {
		head = &faultyHeadEnd{inner: bcast, plan: cfg.HeadEndFaults}
		cfg.HeadEndFaults.Instrument(cfg.Obs, "headend")
	}

	var onLifecycle func(controller.LifecycleEvent)
	if cfg.Trace != nil {
		onLifecycle = func(ev controller.LifecycleEvent) {
			var kind trace.Kind
			detail := ""
			switch ev.Kind {
			case controller.LifecycleCreated:
				kind = trace.KindCreate
			case controller.LifecycleTrimmed:
				kind = trace.KindTrim
			case controller.LifecycleDestroyed:
				kind = trace.KindDestroy
			case controller.LifecycleGCed:
				kind = trace.KindGC
			case controller.LifecycleRefreshRetry:
				kind, detail = trace.KindRefreshRetry, fmt.Sprintf("attempt=%d", ev.Attempt)
			case controller.LifecycleRefreshRecovered:
				kind, detail = trace.KindRefreshOK, fmt.Sprintf("attempts=%d", ev.Attempt)
			default:
				// Recompositions already surface as wakeup events.
				return
			}
			cfg.Trace.Record(trace.Event{
				At: clk.Now(), Kind: kind, Node: ev.Node, Instance: uint64(ev.Instance), Detail: detail,
			})
		}
	}

	ctrlCfg := controller.Config{
		Clock:                clk,
		Broadcaster:          head,
		Signalling:           sig,
		Key:                  priv,
		OrgID:                0x0DDC1,
		MaintenancePeriod:    cfg.MaintenancePeriod,
		TargetHeartbeatRate:  cfg.TargetHeartbeatRate,
		ResetRetransmitTicks: cfg.ResetRetransmitTicks,
		RefreshRetryBase:     cfg.RefreshRetryBase,
		RefreshRetryMax:      cfg.RefreshRetryMax,
		Obs:                  cfg.Obs,
		Spans:                cfg.Spans,
		OnLifecycle:          onLifecycle,
		OnWakeup: func(id instance.ID, seq uint32, probability float64) {
			if cfg.Trace != nil {
				cfg.Trace.Record(trace.Event{
					At: clk.Now(), Kind: trace.KindWakeup, Instance: uint64(id),
					Detail: fmt.Sprintf("seq=%d p=%.2f", seq, probability),
				})
			}
		},
	}
	var store *journal.Store
	if cfg.StateDir != "" {
		var err error
		store, err = journal.Open(cfg.StateDir, journal.Options{Obs: cfg.Obs, Clock: clk})
		if err != nil {
			return nil, err
		}
	}
	runCfg := ctrlCfg
	runCfg.Journal = store
	runCfg.Rng = rand.New(rand.NewSource(rng.Int63()))
	ctrl, err := controller.New(runCfg)
	if err != nil {
		return nil, err
	}
	beCfg := backend.Config{Clock: clk, Replication: cfg.Replication, Obs: cfg.Obs, Spans: cfg.Spans, CredentialMode: cfg.CredentialMode}
	if cfg.CredentialMode != backend.CredOff {
		// Deterministic MAC secret: derived from the deployment seed so
		// credentialed runs replay bit-identically.
		secret := make([]byte, 32)
		rng.Read(secret)
		beCfg.CredentialSecret = secret
	}
	if cfg.Adversary != nil {
		// Facing an adversary, track credibility even at Replication 1 so
		// credential rejections still quarantine.
		beCfg.TrackCredibility = true
		cfg.Adversary.Instrument(cfg.Obs, "adversary")
	}
	be, err := backend.New(beCfg)
	if err != nil {
		return nil, err
	}
	reg := dve.NewRegistry()
	reg.Register(backend.WorkerEntryPoint, backend.Worker)

	s := &System{
		cfg:           cfg,
		Clock:         clk,
		Controller:    ctrl,
		Backend:       be,
		Broadcaster:   bcast,
		Signalling:    sig,
		Registry:      reg,
		controllerPub: pub,
		store:         store,
		byInst:        make(map[instance.ID]map[uint64]bool),
	}
	// The Provider is a one-shard federation; its journal stays at
	// StateDir. Recovery draws from a dedicated rng stream so a restart
	// does not perturb the deployment's other deterministic draws.
	restartRng := rand.New(rand.NewSource(rng.Int63()))
	shard := federation.Shard{ID: 0, Ctrl: ctrl}
	if store != nil {
		shard.Rebuild = func() (*controller.Controller, error) {
			return s.rebuildController(ctrlCfg, head, restartRng)
		}
	}
	if s.Provider, err = federation.New(federation.Config{Shards: []federation.Shard{shard}}); err != nil {
		return nil, err
	}

	var mixTotal float64
	for _, d := range cfg.DeviceMix {
		if d.Fraction <= 0 {
			return nil, errors.New("system: device-mix fractions must be positive")
		}
		mixTotal += d.Fraction
	}
	drawProfile := func(r *rand.Rand) instance.DeviceProfile {
		if len(cfg.DeviceMix) == 0 {
			return instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100}
		}
		x := r.Float64() * mixTotal
		for _, d := range cfg.DeviceMix {
			if x < d.Fraction {
				return d.Profile
			}
			x -= d.Fraction
		}
		return cfg.DeviceMix[len(cfg.DeviceMix)-1].Profile
	}

	var cacheMet *dsmcc.CacheMetrics
	if cfg.ChunkCacheBytes != 0 {
		cacheMet = dsmcc.NewCacheMetrics(cfg.Obs)
	}
	linkCfg := netsim.LinkConfig{RateBps: cfg.Delta, Latency: cfg.DirectLatency}
	for i := 0; i < cfg.Nodes; i++ {
		nodeID := uint64(i + 1)
		nodeRng := rand.New(rand.NewSource(rng.Int63()))
		mode := stb.InUse
		if nodeRng.Float64() < cfg.StandbyFraction {
			mode = stb.Standby
		}
		box, err := stb.New(stb.Config{
			ID:          nodeID,
			Clock:       clk,
			Broadcaster: bcast,
			Signalling:  sig,
			Profile:     drawProfile(nodeRng),
			Perf:        cfg.Perf,
			Mode:        mode,
			Strategy:    cfg.Strategy,
			Rng:         nodeRng,

			ChunkCacheBytes: cfg.ChunkCacheBytes,
			CacheMetrics:    cacheMet,
		})
		if err != nil {
			return nil, err
		}
		factory, err := pna.NewFactory(pna.Config{
			NodeID:           nodeID,
			Profile:          box.Profile(),
			ControllerKey:    pub,
			DialController:   s.dialer(linkCfg, "controller", s.serveController),
			DialBackend:      s.backendDialer(linkCfg, be.Serve, nodeID),
			Registry:         reg,
			TaskDuration:     box.TaskDuration,
			Rng:              rand.New(rand.NewSource(nodeRng.Int63())),
			DefaultHeartbeat: cfg.HeartbeatPeriod,
			OnStateChange:    s.noteState,
			Obs:              cfg.Obs,
			Spans:            cfg.Spans,
		})
		if err != nil {
			return nil, err
		}
		box.OnPower = func(on bool, at time.Time) {
			if !on {
				// A box that dies mid-task leaves no state-change
				// callback behind; evict it from the oracle so LiveBusy
				// does not count ghosts.
				s.notePowerGone(nodeID)
			}
			if cfg.Trace != nil {
				kind := trace.KindPowerOff
				if on {
					kind = trace.KindPowerOn
				}
				cfg.Trace.Record(trace.Event{At: at, Kind: kind, Node: nodeID})
			}
		}
		box.RegisterApp("pna.xlet", factory)
		s.STBs = append(s.STBs, box)
	}
	return s, nil
}

// faultyHeadEnd makes the Controller's carousel updates fail according
// to a deterministic netsim.FaultPlan. Bring-up (Start) is passed
// through untouched so injected runs always reach steady state.
type faultyHeadEnd struct {
	inner controller.HeadEnd
	plan  *netsim.FaultPlan
}

func (f *faultyHeadEnd) Start(files []dsmcc.File) error { return f.inner.Start(files) }

func (f *faultyHeadEnd) Update(files []dsmcc.File) error {
	if f.plan.Next() {
		return errors.New("system: injected head-end update failure")
	}
	return f.inner.Update(files)
}

// serveController is the head-end side of every node's direct channel.
// Unlike binding Controller.ServeNode at dial time, it resolves the
// current Controller per message, so node sessions survive a controller
// crash: while crashed, heartbeats simply go unanswered (the PNA's
// RecvTimeout tolerates missing replies), and after a restart the same
// sessions feed the recovered Controller — re-adoption, not re-waking.
func (s *System) serveController(ep *netsim.Endpoint) {
	for {
		pkt, err := ep.Recv()
		if err != nil {
			return
		}
		raw, ok := pkt.Payload.([]byte)
		if !ok {
			continue
		}
		hb, err := control.DecodeHeartbeat(raw)
		if err != nil {
			continue
		}
		_, ctrl, err := s.Provider.Route(hb.NodeID)
		if err != nil {
			continue // controller down: the report vanishes, no reply
		}
		reply := ctrl.HandleHeartbeat(hb)
		ep.Send(pkt.From, control.EncodeHeartbeatReply(reply), control.HeartbeatReplyWireSize)
	}
}

// CrashController hard-stops the control plane in place, as a killed
// coordinator process would: maintenance and refresh loops halt, the
// journal store closes, and heartbeats go unanswered. Everything else
// — the cycling carousel, AIT repetition, devices, running DVEs, the
// Backend — stays up, which is exactly the failure split durability is
// for.
func (s *System) CrashController() error {
	if s.cfg.StateDir == "" {
		return errors.New("system: no StateDir, control plane is not durable")
	}
	if err := s.Provider.Kill(0); err != nil {
		return err
	}
	s.mu.Lock()
	store := s.store
	s.mu.Unlock()
	return store.Close()
}

// resumedHeadEnd adapts an already-cycling head-end for a recovered
// Controller: its Start maps to Update, since the broadcast never
// stopped while the control plane was down.
type resumedHeadEnd struct{ inner controller.HeadEnd }

func (r resumedHeadEnd) Start(files []dsmcc.File) error  { return r.inner.Update(files) }
func (r resumedHeadEnd) Update(files []dsmcc.File) error { return r.inner.Update(files) }

// RestartController brings the control plane back from the state
// directory by failing the Provider's shard over onto a rebuilt
// Controller. Outstanding instance handles resolve their Controller
// through the Provider, so they keep working unchanged.
func (s *System) RestartController() error {
	_, err := s.Provider.Failover(0)
	return err
}

// rebuildController is the shard's Failover path: it reopens the
// journal store, replays snapshot+journal into a fresh Controller, and
// re-airs the recovered content in one head-end update.
func (s *System) rebuildController(cfg controller.Config, head controller.HeadEnd, rng *rand.Rand) (*controller.Controller, error) {
	cfg.Broadcaster = resumedHeadEnd{head}
	cfg.Rng = rand.New(rand.NewSource(rng.Int63()))
	store, err := journal.Open(s.cfg.StateDir, journal.Options{Obs: s.cfg.Obs, Clock: s.Clock})
	if err != nil {
		return nil, err
	}
	cfg.Journal = store
	ctrl, err := controller.New(cfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	if err := ctrl.Start(); err != nil {
		store.Close()
		return nil, err
	}
	s.mu.Lock()
	s.Controller = ctrl
	s.store = store
	s.mu.Unlock()
	return ctrl, nil
}

// ContentStats reports the current Controller's head-end content
// (crash-safe accessor for tests that span a restart).
func (s *System) ContentStats() (controlFileBytes, carouselFiles, live, destroyedOnAir int) {
	s.mu.Lock()
	ctrl := s.Controller
	s.mu.Unlock()
	return ctrl.ContentStats()
}

// dialer builds a Dialer that creates a fresh duplex channel to a
// server component and spawns its per-connection session.
func (s *System) dialer(cfg netsim.LinkConfig, server string, serve func(*netsim.Endpoint)) pna.Dialer {
	clk := s.Clock
	return func() (*netsim.Endpoint, func()) {
		client, srv := netsim.NewDuplex(clk, "node", server, cfg, cfg)
		clk.Go(func() { serve(srv) })
		hangup := func() {
			client.Close()
			srv.Close()
		}
		return client, hangup
	}
}

// backendDialer is the node-side backend dialer; when nodeID is assigned
// a byzantine behavior, the client endpoint's SendHook rewrites result
// submissions on the wire per the plan.
func (s *System) backendDialer(cfg netsim.LinkConfig, serve func(*netsim.Endpoint), nodeID uint64) pna.Dialer {
	inner := s.dialer(cfg, "backend", serve)
	plan := s.cfg.Adversary
	if plan == nil || !plan.IsByzantine(nodeID) {
		return inner
	}
	hook := adversaryHook(plan, nodeID)
	return func() (*netsim.Endpoint, func()) {
		client, hangup := inner()
		client.SendHook = hook
		return client, hangup
	}
}

// adversaryHook applies nodeID's assigned misbehavior to outgoing task
// results. Netsim stays payload-agnostic; this is where the plan's
// decisions meet the task-plane message types.
func adversaryHook(plan *netsim.AdversaryPlan, nodeID uint64) func(to string, payload any) (any, bool) {
	behavior := plan.Behavior(nodeID)
	return func(to string, payload any) (any, bool) {
		res, ok := payload.(*backend.TaskResult)
		if !ok {
			return payload, true
		}
		mut := *res
		switch behavior {
		case netsim.WrongResult, netsim.FlipFlop, netsim.Collude:
			if !plan.ShouldLie(nodeID) {
				return payload, true
			}
			mut.Payload = plan.WrongPayload(nodeID, res.JobID, res.TaskID)
		case netsim.ForgeCred:
			mut.Credential = plan.ForgeCredential(nodeID, res.Credential)
		case netsim.ReplayCred:
			mut.Credential = plan.ReplayCredential(nodeID, res.Credential)
		default:
			return payload, true
		}
		return &mut, true
	}
}

// noteState maintains the direct (oracle) view of instance membership
// used by tests and experiments; the Controller's own view comes only
// from heartbeats.
func (s *System) noteState(nodeID uint64, st control.NodeState, inst instance.ID) {
	s.mu.Lock()
	for _, members := range s.byInst {
		delete(members, nodeID)
	}
	if st == control.StateBusy {
		m := s.byInst[inst]
		if m == nil {
			m = make(map[uint64]bool)
			s.byInst[inst] = m
		}
		m[nodeID] = true
	}
	s.mu.Unlock()
	if s.cfg.Trace != nil {
		kind := trace.KindLeave
		if st == control.StateBusy {
			kind = trace.KindJoin
		}
		s.cfg.Trace.Record(trace.Event{
			At: s.Clock.Now(), Kind: kind, Node: nodeID, Instance: uint64(inst),
		})
	}
}

// notePowerGone drops a powered-off node from the oracle membership.
func (s *System) notePowerGone(nodeID uint64) {
	s.mu.Lock()
	for _, members := range s.byInst {
		delete(members, nodeID)
	}
	s.mu.Unlock()
}

// LiveBusy reports the oracle count of nodes busy on an instance.
func (s *System) LiveBusy(id instance.ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byInst[id])
}

// Start boots the head-end and powers on the initial node fraction.
func (s *System) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("system: already started")
	}
	s.started = true
	s.mu.Unlock()

	if err := s.Controller.Start(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x51B0))
	for _, box := range s.STBs {
		if rng.Float64() < s.cfg.InitialPowerOn {
			if err := box.PowerOn(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Shutdown powers every node off and stops the head-end loops, letting
// a simulated clock's Wait return.
func (s *System) Shutdown() {
	for _, box := range s.STBs {
		box.StopChurn()
		box.PowerOff()
	}
	s.mu.Lock()
	ctrl := s.Controller
	s.mu.Unlock()
	ctrl.Stop()
}

// PoweredOn counts live nodes.
func (s *System) PoweredOn() int {
	n := 0
	for _, box := range s.STBs {
		if box.Powered() {
			n++
		}
	}
	return n
}
