package system

import (
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func testImage(payloadBytes int) *appimage.Image {
	return &appimage.Image{
		Name:       "worker",
		Version:    1,
		EntryPoint: backend.WorkerEntryPoint,
		Payload:    make([]byte, payloadBytes),
	}
}

func newSystem(t *testing.T, clk simtime.Clock, nodes int, seed int64) *System {
	t.Helper()
	sys, err := New(Config{
		Clock:             clk,
		Nodes:             nodes,
		Seed:              seed,
		HeartbeatPeriod:   30 * time.Second,
		MaintenancePeriod: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEndToEndJobCompletes(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sys := newSystem(t, clk, 40, 1)

	gen := workload.Generator{
		Name: "e2e", ImageBytes: 1 << 20, Tasks: 200,
		InputBytes: 512, OutputBytes: 256, MeanSeconds: 5,
	}
	job, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Backend.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sys.Provider.Create(controller.InstanceSpec{
		Image:              testImage(1 << 20),
		Target:             40,
		InitialProbability: 1,
		HeartbeatPeriod:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.OnComplete(func(time.Time) { sys.Shutdown() })
	clk.Wait()

	ms, done := h.Makespan()
	if !done {
		t.Fatal("job never completed")
	}
	if len(h.Results()) != 200 {
		t.Fatalf("results = %d, want 200", len(h.Results()))
	}
	// Sanity bounds: compute floor is n·p/N = 25 s; everything (wakeup,
	// signalling, transfers, heartbeat phases) must fit well under 10
	// minutes at these sizes.
	if ms < 25*time.Second {
		t.Fatalf("makespan %v beats the compute floor", ms)
	}
	if ms > 10*time.Minute {
		t.Fatalf("makespan %v implausibly high", ms)
	}
	if st, err := inst.Status(); err != nil || st.Wakeups < 1 {
		t.Fatalf("status %+v err %v", st, err)
	}
	if sys.Backend.Completed != 200 {
		t.Fatalf("backend completed = %d", sys.Backend.Completed)
	}
}

func TestAllNodesJoinWithProbabilityOne(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sys := newSystem(t, clk, 30, 2)
	_, err := sys.Provider.Create(controller.InstanceSpec{
		Image:              testImage(100000),
		Target:             30,
		InitialProbability: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.AfterFunc(5*time.Minute, sys.Shutdown)
	var joined int
	clk.AfterFunc(4*time.Minute, func() { joined = sys.LiveBusy(1) })
	clk.Wait()
	if joined != 30 {
		t.Fatalf("joined = %d of 30", joined)
	}
}

func TestProbabilisticSizingConverges(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sys := newSystem(t, clk, 200, 3)

	// Let two heartbeat rounds populate the Controller's idle view,
	// then ask for a 50-node instance with auto probability.
	clk.AfterFunc(90*time.Second, func() {
		if _, err := sys.Provider.Create(controller.InstanceSpec{
			Image:  testImage(100000),
			Target: 50,
		}); err != nil {
			t.Errorf("create: %v", err)
		}
	})
	// After several maintenance rounds the live size must have
	// converged to the target (recomposition fills deficits, trims cut
	// overshoot).
	var live, busyView int
	clk.AfterFunc(20*time.Minute, func() {
		live = sys.LiveBusy(1)
		st, err := sys.Controller.Status(1)
		if err != nil {
			t.Errorf("status: %v", err)
		}
		busyView = st.Busy
		sys.Shutdown()
	})
	clk.Wait()
	if live < 45 || live > 55 {
		t.Fatalf("live busy = %d, want ≈50", live)
	}
	if busyView < 45 || busyView > 55 {
		t.Fatalf("controller's view = %d, want ≈50", busyView)
	}
}

func TestDestroyInstanceFreesNodes(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sys := newSystem(t, clk, 20, 4)
	inst, err := sys.Provider.Create(controller.InstanceSpec{
		Image:              testImage(50000),
		Target:             20,
		InitialProbability: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var joined, after int
	clk.AfterFunc(3*time.Minute, func() {
		joined = sys.LiveBusy(inst.ID())
		if err := inst.Destroy(); err != nil {
			t.Errorf("destroy: %v", err)
		}
	})
	clk.AfterFunc(10*time.Minute, func() {
		after = sys.LiveBusy(1)
		sys.Shutdown()
	})
	clk.Wait()
	if joined == 0 {
		t.Fatal("nobody joined before destroy")
	}
	if after != 0 {
		t.Fatalf("still %d busy after destroy", after)
	}
}

func TestResizeShrinksInstance(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sys := newSystem(t, clk, 30, 5)
	inst, err := sys.Provider.Create(controller.InstanceSpec{
		Image:              testImage(50000),
		Target:             30,
		InitialProbability: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.AfterFunc(4*time.Minute, func() {
		if err := inst.Resize(10); err != nil {
			t.Errorf("resize: %v", err)
		}
	})
	var after int
	clk.AfterFunc(15*time.Minute, func() {
		after = sys.LiveBusy(inst.ID())
		sys.Shutdown()
	})
	clk.Wait()
	if after != 10 {
		t.Fatalf("after resize: %d busy, want 10", after)
	}
}

func TestChurnRecomposition(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sys, err := New(Config{
		Clock:             clk,
		Nodes:             60,
		Seed:              6,
		HeartbeatPeriod:   20 * time.Second,
		MaintenancePeriod: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	// Churn: mean 10 min on, 2 min off.
	for _, box := range sys.STBs {
		if err := box.StartChurn(10*time.Minute, 2*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Provider.Create(controller.InstanceSpec{
		Image:              testImage(50000),
		Target:             30,
		InitialProbability: 0.6,
	}); err != nil {
		t.Fatal(err)
	}
	// Sample the live size late; maintenance must keep it near target
	// despite continuous departures.
	var samples []int
	for i := 1; i <= 5; i++ {
		i := i
		clk.AfterFunc(time.Duration(20+5*i)*time.Minute, func() {
			samples = append(samples, sys.LiveBusy(1))
		})
	}
	clk.AfterFunc(50*time.Minute, sys.Shutdown)
	clk.Wait()
	cycles := 0
	for _, box := range sys.STBs {
		cycles += box.PowerCycles
	}
	if cycles == 0 {
		t.Fatal("churn produced no power cycles")
	}
	sum := 0
	for _, s := range samples {
		sum += s
	}
	mean := float64(sum) / float64(len(samples))
	if mean < 20 || mean > 36 {
		t.Fatalf("mean live size under churn = %.1f (samples %v), want ≈30", mean, samples)
	}
}

func TestJobSurvivesChurn(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sys, err := New(Config{
		Clock:             clk,
		Nodes:             40,
		Seed:              7,
		HeartbeatPeriod:   20 * time.Second,
		MaintenancePeriod: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	for _, box := range sys.STBs {
		if err := box.StartChurn(8*time.Minute, 2*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	gen := workload.Generator{Name: "churny", Tasks: 120, InputBytes: 512, OutputBytes: 256, MeanSeconds: 20}
	job, _ := gen.Generate()
	h, err := sys.Backend.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Provider.Create(controller.InstanceSpec{
		Image:              testImage(100000),
		Target:             40,
		InitialProbability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	h.OnComplete(func(time.Time) { sys.Shutdown() })
	// Safety valve: fail rather than hang if the job stalls. The timer
	// fires during Wait's drain even after completion, so it must check.
	clk.AfterFunc(6*time.Hour, func() {
		if _, done := h.Done(); !done {
			t.Error("job did not finish within 6 simulated hours")
		}
		sys.Shutdown()
	})
	clk.Wait()
	if _, done := h.Done(); !done {
		t.Fatal("job lost under churn")
	}
	if len(h.Results()) != 120 {
		t.Fatalf("results = %d, want 120", len(h.Results()))
	}
}

func TestTwoConcurrentInstances(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sys := newSystem(t, clk, 40, 8)
	// Instance 1 takes ~half the population, instance 2 the rest.
	i1, err := sys.Provider.Create(controller.InstanceSpec{
		Image:              testImage(50000),
		Target:             20,
		InitialProbability: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.AfterFunc(2*time.Minute, func() {
		if _, err := sys.Provider.Create(controller.InstanceSpec{
			Image:              testImage(50000),
			Target:             15,
			InitialProbability: 0.8,
		}); err != nil {
			t.Errorf("create second: %v", err)
		}
	})
	var live1, live2 int
	clk.AfterFunc(25*time.Minute, func() {
		live1 = sys.LiveBusy(i1.ID())
		live2 = sys.LiveBusy(2)
		sys.Shutdown()
	})
	clk.Wait()
	if live1 < 17 || live1 > 23 {
		t.Fatalf("instance 1 size = %d, want ≈20", live1)
	}
	if live2 < 12 || live2 > 18 {
		t.Fatalf("instance 2 size = %d, want ≈15", live2)
	}
}

// Back-pressure end to end: with a heartbeat-rate target, the
// Controller re-tunes idle PNAs through heartbeat replies and its
// inbound load drops accordingly.
func TestHeartbeatBackpressureEndToEnd(t *testing.T) {
	run := func(rate float64) int64 {
		clk := simtime.NewSim(epoch)
		sys, err := New(Config{
			Clock:               clk,
			Nodes:               50,
			Seed:                71,
			HeartbeatPeriod:     10 * time.Second,
			MaintenancePeriod:   time.Hour,
			TargetHeartbeatRate: rate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Start(); err != nil {
			t.Fatal(err)
		}
		clk.AfterFunc(30*time.Minute, sys.Shutdown)
		clk.Wait()
		return sys.Controller.HeartbeatsSeen()
	}
	unbounded := run(0)
	bounded := run(0.5) // 50 nodes at 0.5/s → 100 s periods
	t.Logf("heartbeats in 30 min: unbounded=%d bounded=%d", unbounded, bounded)
	if bounded >= unbounded/3 {
		t.Fatalf("back-pressure ineffective: %d vs %d", bounded, unbounded)
	}
}

// TestInstanceIDSurvivesRejectedCreate: a create the head-end rejects
// still consumes a Controller instance id, so a handle's ID must be the
// Controller's — the id PNAs report and LiveBusy keys on — and not a
// count of successful creates.
func TestInstanceIDSurvivesRejectedCreate(t *testing.T) {
	clk := simtime.NewSim(epoch)
	plan := netsim.NewFaultPlan(nil, 0, 1)
	sys, err := New(Config{
		Clock: clk, Nodes: 8, Seed: 12,
		HeartbeatPeriod: 30 * time.Second, MaintenancePeriod: 30 * time.Second,
		HeadEndFaults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	spec := controller.InstanceSpec{Image: testImage(50000), Target: 8, InitialProbability: 1}
	plan.FailNext(1)
	if _, err := sys.Provider.Create(spec); err == nil {
		t.Fatal("create accepted although the head-end rejected its staging")
	}
	inst, err := sys.Provider.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	var live int
	clk.AfterFunc(3*time.Minute, func() {
		live = sys.LiveBusy(inst.ID())
		sys.Shutdown()
	})
	clk.Wait()
	if live != 8 {
		t.Fatalf("LiveBusy(%d) = %d, want all 8 nodes on the handle's id", inst.ID(), live)
	}
}
