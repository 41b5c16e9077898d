package system

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/dsmcc"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

// replayOutcome is what one seed must reproduce exactly.
type replayOutcome struct {
	makespan time.Duration
	assigned int64
}

// runChurnRecompose runs a churning, replicated deployment whose image
// is recomposed four times while it computes: an instance sized
// probabilistically (target below N) woken while nodes already
// heartbeat, then re-aired, re-woken and re-quorumed once a minute.
func runChurnRecompose(t *testing.T, seed int64) replayOutcome {
	t.Helper()
	const (
		nodes, target = 64, 48
		imageBytes    = 1 << 20
		heartbeat     = 30 * time.Second
	)
	rng := rand.New(rand.NewSource(seed))
	job, err := (&workload.Generator{
		Name: "replay", ImageBytes: imageBytes, Tasks: 512,
		InputBytes: 512, OutputBytes: 256, MeanSeconds: 30, JitterCV: 0.2, Rng: rng,
	}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, imageBytes)
	rng.Read(payload)
	images := []*appimage.Image{{Name: "worker", Version: 1, EntryPoint: backend.WorkerEntryPoint, Payload: payload}}
	for k := 0; k < 4; k++ {
		prev := images[len(images)-1]
		next := append([]byte(nil), prev.Payload...)
		rng.Read(next[k*(64<<10) : (k+1)*(64<<10)])
		images = append(images, &appimage.Image{Name: prev.Name, Version: prev.Version + 1,
			EntryPoint: prev.EntryPoint, Payload: next})
	}

	clk := simtime.NewSim(epoch)
	sys, err := New(Config{
		Clock: clk, Nodes: nodes, Seed: seed,
		HeartbeatPeriod: heartbeat, MaintenancePeriod: heartbeat,
		Replication: 3, ChunkCacheBytes: -1, Strategy: dsmcc.FileGranularity,
	})
	if err != nil {
		t.Fatal(err)
	}
	var failed atomic.Value
	fail := func(err error) {
		failed.CompareAndSwap(nil, err)
		sys.Shutdown()
	}
	// Start inside an event, so every actor and timer the start creates
	// is scheduled at one deterministic point of virtual time.
	clk.AfterFunc(0, func() {
		if err := sys.Start(); err != nil {
			fail(err)
			return
		}
		for _, box := range sys.STBs {
			if err := box.StartChurn(25*time.Minute, 5*time.Minute); err != nil {
				fail(err)
				return
			}
		}
	})
	var h *backend.JobHandle
	clk.AfterFunc(30*time.Second, func() {
		var err error
		if h, err = sys.Backend.Submit(job); err != nil {
			fail(err)
			return
		}
		inst, err := sys.Provider.Create(controller.InstanceSpec{
			Image: images[0], Target: target, InitialProbability: 0.9, HeartbeatPeriod: heartbeat,
		})
		if err != nil {
			fail(err)
			return
		}
		h.OnComplete(func(time.Time) { sys.Shutdown() })
		for k, img := range images[1:] {
			img := img
			clk.AfterFunc(time.Duration(k+1)*time.Minute, func() {
				if err := inst.Recompose(img); err != nil {
					fail(err)
				}
			})
		}
	})
	clk.AfterFunc(12*time.Hour, func() { sys.Shutdown() })
	clk.Wait()
	if err, _ := failed.Load().(error); err != nil {
		t.Fatal(err)
	}
	ms, done := h.Makespan()
	if !done {
		t.Fatal("job not done within 12 h")
	}
	return replayOutcome{makespan: ms, assigned: atomic.LoadInt64(&sys.Backend.Assigned)}
}

// TestChurnRecomposeReplays: one seed replays one outcome. Every
// broadcast fan-out (carousel generation listeners, the AIT channel, the
// wakeup bus and its per-receiver loss draws) runs in registration
// order, so repeated runs agree on the makespan and on the dispatch
// count to the nanosecond and the task.
func TestChurnRecomposeReplays(t *testing.T) {
	first := runChurnRecompose(t, 1)
	for run := 2; run <= 3; run++ {
		if got := runChurnRecompose(t, 1); got != first {
			t.Fatalf("run %d: makespan %v, %d dispatches; run 1: makespan %v, %d dispatches",
				run, got.makespan, got.assigned, first.makespan, first.assigned)
		}
	}
}
