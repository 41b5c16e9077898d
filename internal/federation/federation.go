package federation

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"oddci/internal/analytic"
	"oddci/internal/appimage"
	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
	"oddci/internal/obs"
)

var (
	// ErrShardDown is returned when an operation needs a shard whose
	// controller is currently failed and not yet rebuilt.
	ErrShardDown = errors.New("federation: shard down")
	// ErrUnknownShard is returned for shard ids outside the federation.
	ErrUnknownShard = errors.New("federation: unknown shard")
)

// DefaultRebalanceLag is the fraction of the analytically expected fill
// a shard may fall behind before Rebalance moves population to ring
// neighbors. 0.25 tolerates ordinary carousel-phase variance while
// catching shards that genuinely cannot recruit.
const DefaultRebalanceLag = 0.25

// Shard declares one coordinator shard: a started Controller plus a
// Rebuild closure that reconstructs it from its journal after a crash
// (journal.Open → controller.New → Start, the system.RestartController
// recipe). Rebuild may be nil for shards that never fail over.
type Shard struct {
	ID      ShardID
	Ctrl    *controller.Controller
	Rebuild func() (*controller.Controller, error)
}

// Config configures a Federation.
type Config struct {
	Shards []Shard
	// VNodes is the per-shard virtual node count (DefaultVNodes if 0).
	VNodes int
	// RebalanceLag overrides DefaultRebalanceLag when > 0.
	RebalanceLag float64
	// Obs receives federation metrics when non-nil.
	Obs *obs.Registry
}

type shardState struct {
	id      ShardID
	ctrl    *controller.Controller
	rebuild func() (*controller.Controller, error)
	down    bool
}

// Federation is the sharded control plane: it owns the consistent-hash
// ring, routes nodes to their home shard, splits instance targets over
// live idle capacity, rebalances deficit shards against the analytic
// ramp, and fails shards over onto journal-rebuilt controllers.
type Federation struct {
	mu     sync.Mutex
	ring   *Ring
	shards map[ShardID]*shardState
	order  []ShardID // ascending, fixed at construction
	insts  map[uint64]*FedInstance
	nextID uint64
	lag    float64

	rebalances  *obs.Counter
	movedTarget *obs.Counter
	failovers   *obs.Counter
	splitSkew   *obs.Histogram
}

// New builds a Federation over the given shards.
func New(cfg Config) (*Federation, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("federation: needs at least one shard")
	}
	f := &Federation{
		shards: make(map[ShardID]*shardState, len(cfg.Shards)),
		insts:  make(map[uint64]*FedInstance),
		lag:    cfg.RebalanceLag,
	}
	if f.lag <= 0 {
		f.lag = DefaultRebalanceLag
	}
	ring, err := NewRing(1, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	ring.Remove(0)
	for _, s := range cfg.Shards {
		if s.Ctrl == nil {
			return nil, fmt.Errorf("federation: shard %d has no controller", s.ID)
		}
		if _, dup := f.shards[s.ID]; dup {
			return nil, fmt.Errorf("federation: duplicate shard id %d", s.ID)
		}
		f.shards[s.ID] = &shardState{id: s.ID, ctrl: s.Ctrl, rebuild: s.Rebuild}
		f.order = append(f.order, s.ID)
		ring.Add(s.ID)
	}
	sort.Slice(f.order, func(a, b int) bool { return f.order[a] < f.order[b] })
	f.ring = ring
	if cfg.Obs != nil {
		f.instrument(cfg.Obs)
	}
	return f, nil
}

func (f *Federation) instrument(reg *obs.Registry) {
	f.rebalances = reg.Counter("oddci_federation_rebalances_total",
		"Cross-shard rebalance passes that moved population.")
	f.movedTarget = reg.Counter("oddci_federation_rebalance_moved_target_total",
		"Target units moved between shards by rebalancing.")
	f.failovers = reg.Counter("oddci_federation_failovers_total",
		"Shard controllers rebuilt from their journal after a failure.")
	f.splitSkew = reg.Histogram("oddci_federation_split_skew",
		"Max/mean ratio of per-shard shares at instance create.",
		[]float64{1.0, 1.05, 1.1, 1.25, 1.5, 2, 4})
	// The registry keys metrics by plain name (no label support), so
	// per-shard population gauges get the shard id baked into the name.
	for _, id := range f.order {
		id := id
		reg.GaugeFunc(fmt.Sprintf("oddci_federation_shard_%d_idle", id),
			fmt.Sprintf("Idle PNAs reported by shard %d's controller.", id),
			func() float64 {
				f.mu.Lock()
				st := f.shards[id]
				down, ctrl := st.down, st.ctrl
				f.mu.Unlock()
				if down {
					return 0
				}
				idle, _ := ctrl.Population()
				return float64(idle)
			})
		reg.GaugeFunc(fmt.Sprintf("oddci_federation_shard_%d_busy", id),
			fmt.Sprintf("Busy PNAs reported by shard %d's controller.", id),
			func() float64 {
				f.mu.Lock()
				st := f.shards[id]
				down, ctrl := st.down, st.ctrl
				f.mu.Unlock()
				if down {
					return 0
				}
				_, busy := ctrl.Population()
				return float64(busy)
			})
	}
}

// Ring exposes the federation's hash ring (read-only use).
func (f *Federation) Ring() *Ring { return f.ring }

// Shards returns the shard ids in ascending order.
func (f *Federation) Shards() []ShardID {
	out := make([]ShardID, len(f.order))
	copy(out, f.order)
	return out
}

// Controller returns the current controller serving shard s.
func (f *Federation) Controller(s ShardID) (*controller.Controller, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.shards[s]
	if !ok {
		return nil, ErrUnknownShard
	}
	if st.down {
		return nil, ErrShardDown
	}
	return st.ctrl, nil
}

// Route maps a node identity to its home shard and that shard's
// current controller — the PNA-facing entry point (heartbeats, task
// traffic). During an outage it returns ErrShardDown: the broadcast
// plane keeps running, but consolidation for that slice stalls until
// failover completes.
func (f *Federation) Route(nodeID uint64) (ShardID, *controller.Controller, error) {
	s := f.ring.Owner(nodeID)
	ctrl, err := f.Controller(s)
	return s, ctrl, err
}

// Kill fails a shard as the crash of its process would: the shard's
// controller stops its maintenance and refresh loops, so nothing it
// still holds can re-air, and Route/Controller return ErrShardDown
// until Failover rebuilds it. Killing a shard that is already down is
// an error.
func (f *Federation) Kill(s ShardID) error {
	f.mu.Lock()
	st, ok := f.shards[s]
	if !ok {
		f.mu.Unlock()
		return ErrUnknownShard
	}
	if st.down {
		f.mu.Unlock()
		return fmt.Errorf("federation: shard %d is already down", s)
	}
	st.down = true
	ctrl := st.ctrl
	f.mu.Unlock()
	ctrl.Stop()
	return nil
}

// Down reports whether shard s is currently failed.
func (f *Federation) Down(s ShardID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.shards[s]
	return ok && st.down
}

// Failover rebuilds a failed shard's controller from its journal and
// swaps it in. The returned adopter is the ring successor that would
// host the rebuilt controller in a deployed federation (telemetry; the
// replay itself is location-independent). The rebuilt controller
// replays OpCreate/OpRecompose/OpResize records, then Start() arms the
// heartbeat-grace window (adoptUntil), so surviving members are
// re-adopted from their next heartbeat and no wakeup is re-broadcast —
// zero duplicate wakeups by construction.
func (f *Federation) Failover(s ShardID) (ShardID, error) {
	f.mu.Lock()
	st, ok := f.shards[s]
	if !ok {
		f.mu.Unlock()
		return -1, ErrUnknownShard
	}
	if !st.down {
		f.mu.Unlock()
		return -1, fmt.Errorf("federation: shard %d is not down", s)
	}
	if st.rebuild == nil {
		f.mu.Unlock()
		return -1, fmt.Errorf("federation: shard %d has no rebuild path", s)
	}
	rebuild := st.rebuild
	f.mu.Unlock()

	adopter := f.liveSuccessor(s)
	ctrl, err := rebuild()
	if err != nil {
		return adopter, fmt.Errorf("federation: rebuild shard %d: %w", s, err)
	}

	f.mu.Lock()
	st.ctrl = ctrl
	st.down = false
	f.mu.Unlock()
	if f.failovers != nil {
		f.failovers.Inc()
	}
	return adopter, nil
}

// live snapshots the shards that are up, in ascending id order.
func (f *Federation) live() []shardState {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]shardState, 0, len(f.order))
	for _, id := range f.order {
		if st := f.shards[id]; !st.down {
			out = append(out, *st)
		}
	}
	return out
}

// Population sums the live shards' heartbeat-derived (idle, busy) node
// counts. A down shard's slice is unknown until failover and counts as
// zero.
func (f *Federation) Population() (idle, busy int) {
	for _, st := range f.live() {
		i, b := st.ctrl.Population()
		idle += i
		busy += b
	}
	return idle, busy
}

// liveSuccessor walks the ring clockwise from s until a live shard.
func (f *Federation) liveSuccessor(s ShardID) ShardID {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.ring.Neighbors(s, len(f.shards)) {
		if st, ok := f.shards[n]; ok && !st.down {
			return n
		}
	}
	return s
}

// FedInstance is one logical instance spread across the federation.
// Parts are keyed by shard id and resolve their controller through the
// Federation at call time, so a failover's controller swap is
// transparent to outstanding handles.
type FedInstance struct {
	fed  *Federation
	seq  uint64 // creation order; keys Federation.insts
	spec controller.InstanceSpec

	mu        sync.Mutex
	parts     map[ShardID]instance.ID
	destroyed bool
}

// Create provisions one logical instance across the live shards,
// splitting the target in proportion to each shard's idle population.
func (f *Federation) Create(spec controller.InstanceSpec) (*FedInstance, error) {
	if spec.Target <= 0 {
		return nil, errors.New("federation: target must be positive")
	}
	live := f.live()
	if len(live) == 0 {
		return nil, ErrShardDown
	}

	weights := make([]int, len(live))
	for i, st := range live {
		idle, _ := st.ctrl.Population()
		weights[i] = idle
	}
	shares := Split(spec.Target, weights)
	f.observeSkew(shares)

	inst := &FedInstance{fed: f, spec: spec, parts: make(map[ShardID]instance.ID)}
	for i, share := range shares {
		if share == 0 {
			continue
		}
		sub := spec
		sub.Target = share
		id, err := live[i].ctrl.CreateInstance(sub)
		if err != nil {
			for j := 0; j < i; j++ {
				if pid, ok := inst.parts[live[j].id]; ok {
					live[j].ctrl.DestroyInstance(pid)
				}
			}
			return nil, fmt.Errorf("federation: shard %d: %w", live[i].id, err)
		}
		inst.parts[live[i].id] = id
	}
	if len(inst.parts) == 0 {
		return nil, errors.New("federation: no shard received a share")
	}

	f.mu.Lock()
	f.nextID++
	inst.seq = f.nextID
	f.insts[inst.seq] = inst
	f.mu.Unlock()
	return inst, nil
}

func (f *Federation) observeSkew(shares []int) {
	if f.splitSkew == nil {
		return
	}
	sum, max, n := 0, 0, 0
	for _, s := range shares {
		if s > 0 {
			sum += s
			n++
			if s > max {
				max = s
			}
		}
	}
	if n > 0 && sum > 0 {
		f.splitSkew.Observe(float64(max) * float64(n) / float64(sum))
	}
}

// Instances lists the live logical instances.
func (f *Federation) Instances() []*FedInstance {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*FedInstance, 0, len(f.insts))
	for _, inst := range f.insts {
		out = append(out, inst)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Parts returns the per-shard instance ids.
func (fi *FedInstance) Parts() map[ShardID]instance.ID {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	out := make(map[ShardID]instance.ID, len(fi.parts))
	for k, v := range fi.parts {
		out[k] = v
	}
	return out
}

// ID returns the instance's id on the lowest-numbered shard that holds
// a part. With one shard this is the Controller's own instance id, the
// one PNAs carry in their heartbeats.
func (fi *FedInstance) ID() instance.ID {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	first := ShardID(-1)
	for s := range fi.parts {
		if first < 0 || s < first {
			first = s
		}
	}
	return fi.parts[first]
}

// Status aggregates the per-shard views: counts are summed, and the
// instance is Destroyed once every part is. A down shard surfaces as
// ErrShardDown: its slice is unknown until failover completes.
func (fi *FedInstance) Status() (controller.InstanceStatus, error) {
	agg := controller.InstanceStatus{ID: fi.ID(), Destroyed: true}
	for s, id := range fi.Parts() {
		ctrl, err := fi.fed.Controller(s)
		if err != nil {
			return controller.InstanceStatus{}, fmt.Errorf("shard %d: %w", s, err)
		}
		st, err := ctrl.Status(id)
		if err != nil {
			return controller.InstanceStatus{}, fmt.Errorf("shard %d: %w", s, err)
		}
		agg.Target += st.Target
		agg.Busy += st.Busy
		agg.Wakeups += st.Wakeups
		agg.Resets += st.Resets
		agg.Trimming += st.Trimming
		agg.Destroyed = agg.Destroyed && st.Destroyed
	}
	return agg, nil
}

// Resize re-splits the new aggregate target over live shards by idle
// capacity plus current membership. A shard that had no part can gain
// one: every shard airs its own carousel, so new content starts airing
// on the shard at create time.
func (fi *FedInstance) Resize(target int) error {
	if target < 0 {
		return errors.New("federation: negative target")
	}
	fi.mu.Lock()
	if fi.destroyed {
		fi.mu.Unlock()
		return errors.New("federation: instance destroyed")
	}
	fi.mu.Unlock()

	live := fi.fed.live()
	if len(live) == 0 {
		return ErrShardDown
	}

	parts := fi.Parts()
	weights := make([]int, len(live))
	for i, st := range live {
		idle, _ := st.ctrl.Population()
		weights[i] = idle
		if pid, ok := parts[st.id]; ok {
			if ps, err := st.ctrl.Status(pid); err == nil {
				weights[i] += ps.Busy
			}
		}
	}
	shares := Split(target, weights)
	for i, share := range shares {
		st := live[i]
		pid, has := parts[st.id]
		switch {
		case has:
			if err := st.ctrl.Resize(pid, share); err != nil {
				return fmt.Errorf("federation: shard %d: %w", st.id, err)
			}
		case share > 0:
			sub := fi.spec
			sub.Target = share
			id, err := st.ctrl.CreateInstance(sub)
			if err != nil {
				return fmt.Errorf("federation: shard %d: %w", st.id, err)
			}
			fi.mu.Lock()
			fi.parts[st.id] = id
			fi.mu.Unlock()
		}
	}
	return nil
}

// Recompose replaces the application image on every part. The first
// failure is returned after all parts were attempted.
func (fi *FedInstance) Recompose(img *appimage.Image) error {
	fi.mu.Lock()
	if fi.destroyed {
		fi.mu.Unlock()
		return errors.New("federation: instance destroyed")
	}
	fi.spec.Image = img
	fi.mu.Unlock()
	var firstErr error
	for s, id := range fi.Parts() {
		ctrl, err := fi.fed.Controller(s)
		if err == nil {
			err = ctrl.Recompose(id, img)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("federation: shard %d: %w", s, err)
		}
	}
	return firstErr
}

// Destroy dismantles every part.
func (fi *FedInstance) Destroy() error {
	fi.mu.Lock()
	if fi.destroyed {
		fi.mu.Unlock()
		return nil
	}
	fi.destroyed = true
	fi.mu.Unlock()
	var firstErr error
	for s, id := range fi.Parts() {
		ctrl, err := fi.fed.Controller(s)
		if err == nil {
			if err = ctrl.DestroyInstance(id); errors.Is(err, controller.ErrInstanceGone) {
				err = nil
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("federation: shard %d: %w", s, err)
		}
	}
	f := fi.fed
	f.mu.Lock()
	delete(f.insts, fi.seq)
	f.mu.Unlock()
	return firstErr
}

// Rebalance compares every part's fill against the analytic ramp curve
// elapsed seconds after its wakeup and moves target away from shards
// that are behind by more than the configured lag AND cannot cover the
// deficit from their own idle population. The uncoverable portion goes
// to ring neighbors with surplus idle, in clockwise order — the shard
// that will also adopt on failure borrows first, keeping movement
// local. Returns the number of target units moved.
func (f *Federation) Rebalance(p analytic.Params, elapsed, meanOn float64) (int, error) {
	expect := p.RampUpWithChurn(elapsed, meanOn)
	if expect <= 0 {
		return 0, nil // still inside the first carousel cycle; nothing is late
	}
	moved := 0
	for _, inst := range f.Instances() {
		m, err := f.rebalanceInstance(inst, expect)
		moved += m
		if err != nil {
			return moved, err
		}
	}
	if moved > 0 {
		if f.rebalances != nil {
			f.rebalances.Inc()
		}
		if f.movedTarget != nil {
			f.movedTarget.Add(int64(moved))
		}
	}
	return moved, nil
}

func (f *Federation) rebalanceInstance(inst *FedInstance, expect float64) (int, error) {
	moved := 0
	for s, id := range inst.Parts() {
		ctrl, err := f.Controller(s)
		if err != nil {
			continue // down shards are failover's problem, not rebalance's
		}
		st, err := ctrl.Status(id)
		if err != nil || st.Destroyed || st.Target == 0 {
			continue
		}
		want := int(math.Floor(expect * float64(st.Target)))
		deficit := want - st.Busy
		if want == 0 || float64(deficit) <= f.lag*float64(want) {
			continue
		}
		idle, _ := ctrl.Population()
		short := deficit - idle
		if short <= 0 {
			continue // local recruitment will close the gap
		}
		// Move the uncoverable portion to clockwise neighbors with
		// surplus idle capacity.
		for _, n := range f.ring.Neighbors(s, f.ring.Size()) {
			if short <= 0 {
				break
			}
			nctrl, err := f.Controller(n)
			if err != nil {
				continue
			}
			spareIdle, _ := nctrl.Population()
			take := short
			if take > spareIdle {
				take = spareIdle
			}
			if take <= 0 {
				continue
			}
			if err := f.shiftTarget(inst, s, n, take); err != nil {
				return moved, err
			}
			short -= take
			moved += take
		}
	}
	return moved, nil
}

// shiftTarget moves `take` target units of inst from shard s to shard n.
func (f *Federation) shiftTarget(inst *FedInstance, s, n ShardID, take int) error {
	sctrl, err := f.Controller(s)
	if err != nil {
		return err
	}
	nctrl, err := f.Controller(n)
	if err != nil {
		return err
	}
	parts := inst.Parts()
	sid := parts[s]
	st, err := sctrl.Status(sid)
	if err != nil {
		return err
	}
	if take > st.Target {
		take = st.Target
	}
	if take <= 0 {
		return nil
	}
	if pid, ok := parts[n]; ok {
		ns, err := nctrl.Status(pid)
		if err != nil {
			return err
		}
		if err := nctrl.Resize(pid, ns.Target+take); err != nil {
			return err
		}
	} else {
		sub := inst.spec
		sub.Target = take
		pid, err := nctrl.CreateInstance(sub)
		if err != nil {
			return err
		}
		inst.mu.Lock()
		inst.parts[n] = pid
		inst.mu.Unlock()
	}
	return sctrl.Resize(sid, st.Target-take)
}
