package flute

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/dsmcc"
	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func startCaster(t *testing.T, clk simtime.Clock, rate float64, files ...dsmcc.File) *Caster {
	t.Helper()
	c, err := NewCaster(clk, rate)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(files); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLayoutInterleavesChunks(t *testing.T) {
	files := []dsmcc.File{
		{Name: "a", Data: make([]byte, 3*ChunkPayload)},
		{Name: "b", Data: make([]byte, 3*ChunkPayload)},
	}
	l, err := buildLayout(files, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Interleaving: a's chunks and b's chunks alternate, so a's k-th
	// chunk ends before b's k-th chunk, which ends before a's (k+1)-th.
	ea, eb := l.chunkEnds["a"], l.chunkEnds["b"]
	if len(ea) != 3 || len(eb) != 3 {
		t.Fatalf("chunks: %d/%d", len(ea), len(eb))
	}
	for k := 0; k < 3; k++ {
		if !(ea[k] < eb[k]) {
			t.Fatalf("round %d not interleaved: a=%d b=%d", k, ea[k], eb[k])
		}
		if k > 0 && !(eb[k-1] < ea[k]) {
			t.Fatal("rounds overlap")
		}
	}
}

func TestCompletionAtMostOneCycle(t *testing.T) {
	// The FLUTE receiver property: any join phase completes any file
	// within one cycle.
	rng := rand.New(rand.NewSource(3))
	files := []dsmcc.File{
		{Name: "small", Data: make([]byte, 10*ChunkPayload)},
		{Name: "image", Data: make([]byte, 500*ChunkPayload)},
	}
	l, err := buildLayout(files, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const samples = 3000
	for i := 0; i < samples; i++ {
		pos := rng.Int63n(l.cycleWire)
		done, ok := l.completion("image", pos)
		if !ok {
			t.Fatal("image missing")
		}
		wait := done - pos
		if wait > l.cycleWire {
			t.Fatalf("completion took %d of a %d-byte cycle", wait, l.cycleWire)
		}
		sum += float64(wait)
	}
	mean := sum / samples / float64(l.cycleWire)
	// Interleaved chunks: the last missing chunk is the one airing just
	// before the join, so the expected wait is ≈ one cycle.
	if mean < 0.95 || mean > 1.0 {
		t.Fatalf("mean completion = %.3f cycles, want ≈1.0", mean)
	}
}

func TestRequestFileDeliversContent(t *testing.T) {
	clk := simtime.NewSim(epoch)
	rng := rand.New(rand.NewSource(4))
	img := make([]byte, 100000)
	rng.Read(img)
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "image", Data: img})
	var got []byte
	var at time.Time
	c.RequestFile("image", dsmcc.FileGranularity, func(data []byte, when time.Time, err error) {
		if err != nil {
			t.Errorf("request: %v", err)
			return
		}
		got, at = data, when
	})
	clk.Wait()
	if !bytes.Equal(got, img) {
		t.Fatal("content mismatch")
	}
	if at.Sub(epoch) > c.CycleDuration() {
		t.Fatalf("delivery %v exceeds one cycle %v", at.Sub(epoch), c.CycleDuration())
	}
}

func TestWakeupBeatsDSMCC(t *testing.T) {
	// Same content, same β: the multicast caster's random-phase wakeup
	// must beat the DSM-CC file-granularity receiver's (1.0 vs ~1.5
	// cycles when the image dominates).
	img := make([]byte, 2<<20)
	files := []dsmcc.File{
		{Name: "pna.xlet", Data: make([]byte, 20000)},
		{Name: "image", Data: img},
	}
	fl, err := buildLayout(files, 1)
	if err != nil {
		t.Fatal(err)
	}
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := car.SetFiles(files); err != nil {
		t.Fatal(err)
	}
	dl, err := car.Layout()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var fluteSum, dsmccSum float64
	const samples = 1000
	for i := 0; i < samples; i++ {
		fp := rng.Int63n(fl.cycleWire)
		fd, _ := fl.completion("image", fp)
		fluteSum += float64(fd-fp) / float64(fl.cycleWire)
		dp := rng.Int63n(dl.CycleWire)
		dd, _ := dl.NextCompletion("image", dp, dsmcc.FileGranularity)
		dsmccSum += float64(dd-dp) / float64(dl.CycleWire)
	}
	fluteMean := fluteSum / samples
	dsmccMean := dsmccSum / samples
	if fluteMean >= dsmccMean {
		t.Fatalf("flute %.3f cycles not better than dsmcc %.3f", fluteMean, dsmccMean)
	}
	if dsmccMean < 1.4 || fluteMean > 1.01 {
		t.Fatalf("means off: flute %.3f (≈1.0), dsmcc %.3f (≈1.5)", fluteMean, dsmccMean)
	}
}

func TestUpdateAtCycleBoundary(t *testing.T) {
	clk := simtime.NewSim(epoch)
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "a", Data: make([]byte, 100000)})
	cycle := c.CycleDuration()
	var gen uint32
	var at time.Time
	c.OnGeneration(func(g uint32, when time.Time) { gen, at = g, when })
	clk.Go(func() {
		clk.Sleep(cycle / 4)
		if err := c.Update([]dsmcc.File{{Name: "a", Data: make([]byte, 200000)}}); err != nil {
			t.Errorf("update: %v", err)
		}
		// Coalesce a second update.
		if err := c.Update([]dsmcc.File{{Name: "a", Data: []byte("final")}}); err != nil {
			t.Errorf("update2: %v", err)
		}
	})
	clk.Wait()
	if gen != 2 {
		t.Fatalf("generation = %d", gen)
	}
	if d := at.Sub(epoch.Add(cycle)); d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("commit at %v, want one cycle", at)
	}
	var got []byte
	c.RequestFile("a", dsmcc.FileGranularity, func(data []byte, _ time.Time, err error) { got = data })
	clk.Wait()
	if string(got) != "final" {
		t.Fatalf("content %q, want coalesced final", got)
	}
}

func TestRequestUnknownFile(t *testing.T) {
	clk := simtime.NewSim(epoch)
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "a", Data: []byte{1}})
	var got error
	c.RequestFile("missing", dsmcc.FileGranularity, func(_ []byte, _ time.Time, err error) { got = err })
	clk.Wait()
	if got != ErrNoSuchFile {
		t.Fatalf("err = %v", got)
	}
}

func TestValidation(t *testing.T) {
	clk := simtime.NewSim(epoch)
	if _, err := NewCaster(clk, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	c, _ := NewCaster(clk, 1e6)
	if err := c.Start(nil); err == nil {
		t.Fatal("empty start accepted")
	}
	if err := c.Update(nil); err == nil {
		t.Fatal("update before start accepted")
	}
	if err := c.Start([]dsmcc.File{{Name: "x", Data: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start([]dsmcc.File{{Name: "x"}}); err == nil {
		t.Fatal("double start accepted")
	}
	if err := c.Update([]dsmcc.File{{Name: "x"}, {Name: "x"}}); err == nil {
		t.Fatal("duplicate files accepted")
	}
	clk.Wait()
}

func TestAccessorsAndListenerCancel(t *testing.T) {
	clk := simtime.NewSim(epoch)
	c, _ := NewCaster(clk, 1e6)
	if c.Generation() != 0 || c.CycleWire() != 0 || c.CycleDuration() != 0 {
		t.Fatal("unstarted caster not zero")
	}
	if _, ok := c.Completion("x", 0); ok {
		t.Fatal("completion on unstarted caster")
	}
	var got error
	c.RequestFile("x", dsmcc.FileGranularity, func(_ []byte, _ time.Time, err error) { got = err })
	clk.Wait()
	if got == nil {
		t.Fatal("request before start accepted")
	}
	if err := c.Start([]dsmcc.File{{Name: "a", Data: make([]byte, 5000)}}); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 1 || c.CycleWire() == 0 {
		t.Fatal("accessors wrong after start")
	}
	if done, ok := c.Completion("a", 0); !ok || done <= 0 || done > c.CycleWire() {
		t.Fatalf("completion = %d, %v", done, ok)
	}
	n := 0
	cancel := c.OnGeneration(func(uint32, time.Time) { n++ })
	cancel()
	clk.Go(func() { c.Update([]dsmcc.File{{Name: "a", Data: []byte("v2")}}) })
	clk.Wait()
	if n != 0 {
		t.Fatal("cancelled listener invoked")
	}
}

// Content version change mid-read restarts the delivery against the new
// generation (the dsmcc semantics, preserved here).
func TestRequestRestartsOnContentChange(t *testing.T) {
	clk := simtime.NewSim(epoch)
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "a", Data: make([]byte, 500000)})
	var got []byte
	clk.Go(func() {
		clk.Sleep(c.CycleDuration() / 2)
		c.RequestFile("a", dsmcc.FileGranularity, func(data []byte, _ time.Time, err error) {
			if err == nil {
				got = data
			}
		})
		// The update commits before the read completes.
		c.Update([]dsmcc.File{{Name: "a", Data: []byte("fresh")}})
	})
	clk.Wait()
	if string(got) != "fresh" {
		t.Fatalf("delivered %d bytes, want the fresh content", len(got))
	}
}

// TestCasterOwnsPayloads: Start and Update copy the caller's payloads,
// so mutating them afterwards changes nothing on air, and every receiver
// is handed the caster's one capacity-clipped buffer rather than a copy
// of its own.
func TestCasterOwnsPayloads(t *testing.T) {
	clk := simtime.NewSim(epoch)
	data := []byte("original-bytes")
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "image", Data: data})
	copy(data, "MUTATED")

	var got [][]byte
	for i := 0; i < 3; i++ {
		c.RequestFile("image", dsmcc.FileGranularity, func(d []byte, _ time.Time, err error) {
			if err != nil {
				t.Errorf("request: %v", err)
			}
			got = append(got, d)
		})
	}
	clk.Wait()
	if len(got) != 3 {
		t.Fatalf("%d deliveries, want 3", len(got))
	}
	for _, d := range got {
		if string(d) != "original-bytes" {
			t.Fatalf("delivered %q after the caller mutated its slice", d)
		}
		if cap(d) != len(d) {
			t.Fatalf("delivered cap %d, len %d: appending would write into the shared buffer", cap(d), len(d))
		}
		if &d[0] != &got[0][0] {
			t.Fatal("receivers were handed separate copies of one file version")
		}
	}

	update := []byte("updated-bytes")
	if err := c.Update([]dsmcc.File{{Name: "image", Data: update}}); err != nil {
		t.Fatal(err)
	}
	copy(update, "MUTATED")
	clk.Wait() // commit at the cycle boundary
	var after []byte
	c.RequestFile("image", dsmcc.FileGranularity, func(d []byte, _ time.Time, _ error) { after = d })
	clk.Wait()
	if string(after) != "updated-bytes" {
		t.Fatalf("delivered %q after the caller mutated its Update slice", after)
	}
}
