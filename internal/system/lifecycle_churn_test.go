package system

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
	"oddci/internal/federation"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
	"oddci/internal/trace"
)

// TestLifecycleChurnUnderFaults is the end-to-end hardening stress:
// hundreds of create→destroy rounds against a head-end whose carousel
// updates fail probabilistically, over a node population that
// power-cycles underneath. It asserts the control plane stays bounded
// (control file, carousel, instance table), drains back to baseline
// once the churn stops, and that every surviving PNA observed its
// reset — no instance keeps ghost members.
func TestLifecycleChurnUnderFaults(t *testing.T) {
	const cycles = 212

	clk := simtime.NewSim(epoch)
	rec := trace.NewRecorder(1 << 17)
	plan := netsim.NewFaultPlan(rand.New(rand.NewSource(23)), 0.25, 3)
	sys, err := New(Config{
		Clock:                clk,
		Nodes:                12,
		Seed:                 7,
		HeartbeatPeriod:      15 * time.Second,
		MaintenancePeriod:    10 * time.Second,
		Trace:                rec,
		HeadEndFaults:        plan,
		ResetRetransmitTicks: 3,
		RefreshRetryBase:     2 * time.Second,
		RefreshRetryMax:      8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	for _, box := range sys.STBs {
		if err := box.StartChurn(5*time.Minute, 45*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	var (
		created                                       []instance.ID
		skips, destroys                               int
		errs                                          []error
		finalBytes, finalFiles, finalLive, finalOnAir int
		ghosts                                        int
	)
	clk.Go(func() {
		spec := controller.InstanceSpec{
			Image:              testImage(1 << 10),
			Target:             3,
			InitialProbability: 0.6,
			HeartbeatPeriod:    15 * time.Second,
		}
		for cycle := 0; cycle < cycles; cycle++ {
			var inst *federation.FedInstance
			for attempt := 0; attempt < 8; attempt++ {
				in, err := sys.Provider.Create(spec)
				if err == nil {
					inst = in
					break
				}
				// Injected staging failure; the create rolled back.
				clk.Sleep(3 * time.Second)
			}
			if inst == nil {
				skips++
				clk.Sleep(5 * time.Second)
				continue
			}
			created = append(created, inst.ID())
			clk.Sleep(10 * time.Second)
			if err := inst.Destroy(); err != nil {
				errs = append(errs, fmt.Errorf("cycle %d destroy: %w", cycle, err))
			} else {
				destroys++
			}
			clk.Sleep(5 * time.Second)
			if cycle%20 == 0 {
				_, files, live, onAir := sys.Controller.ContentStats()
				if live > 2 || onAir > 10 || files != 2+live {
					errs = append(errs, fmt.Errorf(
						"cycle %d control plane unbounded: files=%d live=%d onAir=%d",
						cycle, files, live, onAir))
				}
			}
		}
		// Quiet period: backoff retries, the retransmission windows and
		// heartbeat-driven resets all drain.
		clk.Sleep(2 * time.Minute)
		finalBytes, finalFiles, finalLive, finalOnAir = sys.Controller.ContentStats()
		for _, id := range created {
			ghosts += sys.LiveBusy(id)
		}
		sys.Shutdown()
	})
	clk.Wait()

	for _, err := range errs {
		t.Error(err)
	}
	if destroys < 200 {
		t.Fatalf("only %d/%d cycles completed (skips=%d); need ≥200 rounds", destroys, cycles, skips)
	}
	if finalBytes != 0 || finalFiles != 2 || finalLive != 0 || finalOnAir != 0 {
		t.Fatalf("control plane did not drain: bytes=%d files=%d live=%d onAir=%d",
			finalBytes, finalFiles, finalLive, finalOnAir)
	}
	if ghosts != 0 {
		t.Fatalf("%d ghost members survived their instances' resets", ghosts)
	}
	if gc := rec.Count(trace.KindGC); gc != destroys {
		t.Fatalf("gc events = %d, destroys = %d; every destroyed instance must be GC'd exactly once", gc, destroys)
	}
	injected, failed := plan.Stats()
	if failed == 0 {
		t.Fatalf("plan injected %d updates, failed none — faults never exercised", injected)
	}
	if rec.Count(trace.KindRefreshRetry) == 0 {
		t.Fatal("no refresh-retry events despite injected failures")
	}
	if rec.Count(trace.KindRefreshOK) == 0 {
		t.Fatal("no refresh recoveries recorded")
	}
}
