package system

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/dsmcc"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

// TestCarouselBuffersStayImmutable guards the read-only contract on
// delivered bytes: every receiver in the tree (PNA, middleware, chunk
// cache, DVE) shares the carousel's buffers, so after a run that stages,
// re-stages from cache, recomposes and computes, every on-air file must
// still hash to the module hash recorded when it went on air.
func TestCarouselBuffersStayImmutable(t *testing.T) {
	clk := simtime.NewSim(epoch)
	stopped := false
	sys, err := New(Config{
		Clock:             clk,
		Nodes:             24,
		Seed:              11,
		HeartbeatPeriod:   20 * time.Second,
		MaintenancePeriod: 20 * time.Second,
		ChunkCacheBytes:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	image := func(version uint32) *appimage.Image {
		payload := make([]byte, 64<<10)
		for i := range payload {
			payload[i] = byte(i*13) ^ byte(version)
		}
		return &appimage.Image{Name: "worker", Version: version, EntryPoint: backend.WorkerEntryPoint, Payload: payload}
	}
	job, err := (&workload.Generator{
		Name: "immutable", ImageBytes: 64 << 10, Tasks: 120,
		InputBytes: 256, OutputBytes: 128, MeanSeconds: 5,
	}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Backend.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sys.Provider.Create(controller.InstanceSpec{
		Image:              image(1),
		Target:             24,
		InitialProbability: 1,
		HeartbeatPeriod:    20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Check on air every simulated second: a controller Update carrying
	// the original bytes would otherwise re-air a corrupted file as a
	// new version and hide the write.
	var corrupt error
	var check func()
	check = func() {
		if corrupt = onAirIntact(sys.car); corrupt == nil && !stopped {
			clk.AfterFunc(time.Second, check)
		}
	}
	clk.AfterFunc(time.Second, check)
	clk.AfterFunc(2*time.Minute, func() {
		if err := inst.Recompose(image(2)); err != nil {
			t.Error(err)
		}
	})
	h.OnComplete(func(time.Time) {
		clk.AfterFunc(2*time.Minute, func() {
			stopped = true
			sys.Shutdown()
		})
	})
	clk.Wait()
	if _, done := h.Makespan(); !done {
		t.Fatal("job never completed")
	}
	if corrupt == nil {
		corrupt = onAirIntact(sys.car)
	}
	if corrupt != nil {
		t.Fatal(corrupt)
	}
	// One recomposition, one version bump: a healed corruption would
	// have cost another.
	l, err := sys.car.Layout()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range l.Entries {
		if strings.HasPrefix(e.Name, "image") && e.Version != 1 {
			t.Fatalf("%s at module version %d after one recomposition, want 1", e.Name, e.Version)
		}
	}
}

// onAirIntact reports a carousel file whose bytes no longer hash to the
// module hash recorded when it went on air.
func onAirIntact(car *dsmcc.Carousel) error {
	l, err := car.Layout()
	if err != nil {
		return err
	}
	files := car.Files()
	if len(files) < 2 {
		return fmt.Errorf("carousel holds %d files, want the control file and an image", len(files))
	}
	for _, f := range files {
		e, ok := l.Entry(f.Name)
		if !ok {
			return fmt.Errorf("%s missing from the layout", f.Name)
		}
		if got := dsmcc.HashOf(f.Data); got != e.Hash {
			return fmt.Errorf("%s: on-air bytes hash %v, recorded %v — a receiver wrote into a shared buffer", f.Name, got, e.Hash)
		}
	}
	return nil
}
