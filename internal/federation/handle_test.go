package federation

import (
	"errors"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/controller"
	"oddci/internal/journal"
	"oddci/internal/simtime"
)

// gcPart destroys one part behind its handle's back and advances
// virtual time through enough maintenance passes that the Controller
// garbage-collects it, so later calls on the part hit ErrInstanceGone.
func gcPart(t *testing.T, clk *simtime.Sim, fed *Federation, inst *FedInstance, s ShardID) {
	t.Helper()
	ctrl := mustCtrl(t, fed, s)
	id := inst.Parts()[s]
	if err := ctrl.DestroyInstance(id); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(clk.Now().Add(10 * time.Minute))
	if _, err := ctrl.Status(id); !errors.Is(err, controller.ErrInstanceGone) {
		t.Fatalf("part not garbage-collected: %v", err)
	}
}

func TestOneShardCreateAndTrack(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 1, nil)
	defer stopAll(t, clk, fed, stores)

	inst, err := fed.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := fed.Instances(); len(got) != 1 || got[0] != inst {
		t.Fatalf("instances = %v", got)
	}
	st, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Target != 8 || st.Wakeups != 1 {
		t.Fatalf("status %+v", st)
	}
	// One shard: the handle's id is the Controller's own instance id.
	if inst.ID() == 0 || inst.ID() != inst.Parts()[0] || st.ID != inst.ID() {
		t.Fatalf("ID %d, parts %v, status id %d", inst.ID(), inst.Parts(), st.ID)
	}
}

func TestOneShardDestroyRemovesHandle(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 1, nil)
	defer stopAll(t, clk, fed, stores)

	inst, err := fed.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Destroy(); err != nil {
		t.Fatal(err)
	}
	if len(fed.Instances()) != 0 {
		t.Fatal("destroyed instance still tracked")
	}
	if err := inst.Destroy(); err != nil {
		t.Fatalf("second destroy: %v", err)
	}
	if err := inst.Resize(3); err == nil {
		t.Fatal("resize after destroy accepted")
	}

	// The Controller already garbage-collected the instance: the state
	// the caller asked for holds, so Destroy succeeds and drops the
	// handle.
	gone, err := fed.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	gcPart(t, clk, fed, gone, 0)
	if err := gone.Destroy(); err != nil {
		t.Fatalf("destroy of a collected instance: %v", err)
	}
	if len(fed.Instances()) != 0 {
		t.Fatal("collected instance still tracked")
	}
}

func TestOneShardResizePassesThrough(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 1, nil)
	defer stopAll(t, clk, fed, stores)

	inst, err := fed.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{9, 0} {
		if err := inst.Resize(target); err != nil {
			t.Fatal(err)
		}
		st, err := mustCtrl(t, fed, 0).Status(inst.ID())
		if err != nil {
			t.Fatal(err)
		}
		if st.Target != target {
			t.Fatalf("controller target = %d after Resize(%d)", st.Target, target)
		}
	}
}

func TestOneShardCreateErrorPropagates(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 1, nil)
	defer stopAll(t, clk, fed, stores)

	if _, err := fed.Create(controller.InstanceSpec{}); err == nil {
		t.Fatal("zero target accepted")
	}
	// The Controller's own validation surfaces through the federation.
	if _, err := fed.Create(controller.InstanceSpec{Target: 3}); err == nil {
		t.Fatal("spec without image accepted")
	}
	if len(fed.Instances()) != 0 {
		t.Fatal("failed create left a handle")
	}
}

// TestFederationCreateRollsBack: when a later shard rejects its share,
// the parts already staged on earlier shards are destroyed again.
func TestFederationCreateRollsBack(t *testing.T) {
	clk := simtime.NewSim(epoch)
	live, store, err := buildCtrl(clk, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	unstarted, err := newCtrl(clk, nil, 2) // CreateInstance fails: not started
	if err != nil {
		t.Fatal(err)
	}
	fed, err := New(Config{Shards: []Shard{{ID: 0, Ctrl: live}, {ID: 1, Ctrl: unstarted}}})
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(t, clk, fed, []*journal.Store{store})
	feedIdle(t, clk, fed, 0, 1, 11)
	feedIdle(t, clk, fed, 1, 100, 110)

	if _, err := fed.Create(testSpec()); err == nil {
		t.Fatal("create against an unstarted shard succeeded")
	}
	if len(fed.Instances()) != 0 {
		t.Fatal("failed create left a handle")
	}
	// The reset envelope lingers until garbage collection.
	st, err := live.Status(1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Destroyed {
		t.Fatal("rolled-back part still alive on shard 0")
	}
}

func TestFederationValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("federation without shards accepted")
	}
	if _, err := New(Config{Shards: []Shard{{ID: 0}}}); err == nil {
		t.Fatal("shard without controller accepted")
	}
	clk := simtime.NewSim(epoch)
	ctrl, err := newCtrl(clk, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Shards: []Shard{{ID: 4, Ctrl: ctrl}, {ID: 4, Ctrl: ctrl}}}); err == nil {
		t.Fatal("duplicate shard id accepted")
	}
}

// TestFederationPopulation: Population sums the live shards and skips a
// down one.
func TestFederationPopulation(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 2, nil)
	defer stopAll(t, clk, fed, stores)

	if idle, busy := fed.Population(); idle != 0 || busy != 0 {
		t.Fatalf("empty population = %d/%d", idle, busy)
	}
	feedIdle(t, clk, fed, 0, 1, 4)     // 3 idle
	feedIdle(t, clk, fed, 1, 100, 105) // 5 idle
	mustCtrl(t, fed, 1).HandleHeartbeat(&control.Heartbeat{
		NodeID: 200, State: control.StateBusy, InstanceID: 1, SentAt: clk.Now(),
	})
	if idle, busy := fed.Population(); idle != 8 || busy != 1 {
		t.Fatalf("population = %d/%d, want 8/1", idle, busy)
	}
	if err := fed.Kill(1); err != nil {
		t.Fatal(err)
	}
	if idle, busy := fed.Population(); idle != 3 || busy != 0 {
		t.Fatalf("population with shard 1 down = %d/%d, want 3/0", idle, busy)
	}
	if err := fed.Kill(1); err == nil {
		t.Fatal("killing a down shard accepted")
	}
}

// TestOneShardHandleAcrossFailover: a handle keeps working against the
// journal-rebuilt Controller with no rebinding, and Kill stops the
// failed Controller itself so it cannot re-air anything.
func TestOneShardHandleAcrossFailover(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 1, nil)
	defer stopAll(t, clk, fed, stores)

	inst, err := fed.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	id := inst.ID()
	old := mustCtrl(t, fed, 0)
	old.HandleHeartbeat(&control.Heartbeat{
		NodeID: 7, State: control.StateBusy, InstanceID: id, SentAt: clk.Now(),
	})
	v2 := &appimage.Image{Name: "a", Version: 2, EntryPoint: "e", Payload: []byte{2}}
	if err := inst.Recompose(v2); err != nil {
		t.Fatal(err)
	}
	if st, err := inst.Status(); err != nil || st.Wakeups != 2 || st.Busy != 1 {
		t.Fatalf("status after recompose: %+v, %v", st, err)
	}
	// A destroyed instance whose reset is still on air: a maintenance
	// loop left running would garbage-collect it.
	doomed, err := fed.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := doomed.Destroy(); err != nil {
		t.Fatal(err)
	}

	if err := fed.Kill(0); err != nil {
		t.Fatal(err)
	}
	stores[0].Close()
	if _, err := inst.Status(); !errors.Is(err, ErrShardDown) {
		t.Fatalf("status during outage = %v, want ErrShardDown", err)
	}
	// Kill stopped the failed Controller: many maintenance periods
	// later it has not collected the destroyed instance.
	clk.RunUntil(clk.Now().Add(10 * time.Minute))
	if _, err := old.Status(doomed.ID()); err != nil {
		t.Fatalf("killed controller kept maintaining: %v", err)
	}

	if _, err := fed.Failover(0); err != nil {
		t.Fatal(err)
	}
	st, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != id || st.Target != 8 || st.Wakeups != 2 {
		t.Fatalf("status after failover: %+v", st)
	}
	if err := inst.Resize(4); err != nil {
		t.Fatal(err)
	}
	if err := inst.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Recompose(v2); err == nil {
		t.Fatal("recompose after destroy accepted")
	}
}

// TestFedInstanceStatusReportsIDAndDestroyed: the aggregate carries the
// handle's ID, and is Destroyed once every part is — with one shard,
// exactly the Controller's own status.
func TestFedInstanceStatusReportsIDAndDestroyed(t *testing.T) {
	clk := simtime.NewSim(epoch)
	one, oneStores := newTestFed(t, clk, 1, nil)
	defer stopAll(t, clk, one, oneStores)
	inst, err := one.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Destroy(); err != nil {
		t.Fatal(err)
	}
	got, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	want, err := mustCtrl(t, one, 0).Status(inst.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got != want || !got.Destroyed || got.ID == 0 {
		t.Fatalf("destroyed status = %+v, controller reports %+v", got, want)
	}

	clk2 := simtime.NewSim(epoch)
	two, twoStores := newTestFed(t, clk2, 2, nil)
	defer stopAll(t, clk2, two, twoStores)
	feedIdle(t, clk2, two, 0, 1, 11)
	feedIdle(t, clk2, two, 1, 100, 110)
	multi, err := two.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	parts := multi.Parts()
	if len(parts) != 2 || multi.ID() != parts[0] {
		t.Fatalf("parts %v, ID %d: want both shards, ID from shard 0", parts, multi.ID())
	}
	// One part destroyed behind the handle's back: not yet Destroyed.
	if err := mustCtrl(t, two, 1).DestroyInstance(parts[1]); err != nil {
		t.Fatal(err)
	}
	if st, err := multi.Status(); err != nil || st.Destroyed {
		t.Fatalf("half-destroyed status = %+v, %v", st, err)
	}
	if err := multi.Destroy(); err != nil {
		t.Fatal(err)
	}
	for s, id := range parts {
		if st, err := mustCtrl(t, two, s).Status(id); err != nil || !st.Destroyed {
			t.Fatalf("shard %d part after Destroy: %+v, %v", s, st, err)
		}
	}
	if st, err := multi.Status(); err != nil || !st.Destroyed || st.ID != parts[0] {
		t.Fatalf("destroyed status = %+v, %v", st, err)
	}
}

// TestFedInstanceStatusGonePart: a part the Controller garbage-collected
// behind the handle's back surfaces as ErrInstanceGone from Status
// instead of silently reporting half the instance.
func TestFedInstanceStatusGonePart(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 2, nil)
	defer stopAll(t, clk, fed, stores)
	feedIdle(t, clk, fed, 0, 1, 11)
	feedIdle(t, clk, fed, 1, 100, 110)
	inst, err := fed.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	gcPart(t, clk, fed, inst, 0)
	if _, err := inst.Status(); !errors.Is(err, controller.ErrInstanceGone) {
		t.Fatalf("Status over a gone part = %v, want ErrInstanceGone", err)
	}
}

// TestFedInstanceResizeGonePart: Resize rejects a negative target and
// surfaces a garbage-collected part as ErrInstanceGone; Destroy
// tolerates the gone part, after which Resize is refused.
func TestFedInstanceResizeGonePart(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 2, nil)
	defer stopAll(t, clk, fed, stores)
	feedIdle(t, clk, fed, 0, 1, 11)
	feedIdle(t, clk, fed, 1, 100, 110)
	inst, err := fed.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Resize(-1); err == nil {
		t.Fatal("negative target accepted")
	}
	gcPart(t, clk, fed, inst, 0)
	if err := inst.Resize(6); !errors.Is(err, controller.ErrInstanceGone) {
		t.Fatalf("Resize over a gone part = %v, want ErrInstanceGone", err)
	}
	if err := inst.Destroy(); err != nil {
		t.Fatalf("Destroy over a gone part = %v", err)
	}
	if err := inst.Resize(6); err == nil {
		t.Fatal("resize after destroy accepted")
	}
}

// TestFederationCreateSplitsByPopulation: a create over two shards with
// 30 and 10 idle nodes splits a target of 20 exactly 15/5, and each
// part airs one wakeup.
func TestFederationCreateSplitsByPopulation(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 2, nil)
	defer stopAll(t, clk, fed, stores)
	feedIdle(t, clk, fed, 0, 1, 31)    // 30 idle
	feedIdle(t, clk, fed, 1, 100, 110) // 10 idle

	spec := testSpec()
	spec.Target, spec.InitialProbability = 20, 0.5
	inst, err := fed.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	parts := inst.Parts()
	stA, err := mustCtrl(t, fed, 0).Status(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	stB, err := mustCtrl(t, fed, 1).Status(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	if stA.Target != 15 || stB.Target != 5 {
		t.Fatalf("split %d/%d, want 15/5 (proportional to 30/10)", stA.Target, stB.Target)
	}
	agg, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Target != 20 || agg.Wakeups != 2 {
		t.Fatalf("aggregate %+v", agg)
	}
}

// TestFedInstanceResize: resizing an instance with a part on each shard
// moves the aggregate target to exactly the new value.
func TestFedInstanceResize(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 2, nil)
	defer stopAll(t, clk, fed, stores)
	feedIdle(t, clk, fed, 0, 1, 21)
	feedIdle(t, clk, fed, 1, 100, 120)

	spec := testSpec()
	spec.Target = 10
	inst, err := fed.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Resize(30); err != nil {
		t.Fatal(err)
	}
	agg, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Target != 30 {
		t.Fatalf("aggregate target = %d after resize", agg.Target)
	}
}

// TestFedInstanceRecompose: each part re-airs its wakeup once for the
// image update, and a destroyed instance refuses to recompose.
func TestFedInstanceRecompose(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 2, nil)
	defer stopAll(t, clk, fed, stores)
	feedIdle(t, clk, fed, 0, 1, 11)
	feedIdle(t, clk, fed, 1, 100, 110)

	spec := testSpec()
	spec.Target = 10
	inst, err := fed.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	v2 := &appimage.Image{Name: "a", Version: 2, EntryPoint: "e", Payload: []byte{9, 9}}
	if err := inst.Recompose(v2); err != nil {
		t.Fatal(err)
	}
	agg, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Wakeups != 4 {
		t.Fatalf("aggregate wakeups %d after recompose, want 4", agg.Wakeups)
	}
	if err := inst.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Recompose(v2); err == nil {
		t.Fatal("recompose after destroy accepted")
	}
}
