package dsmcc

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"oddci/internal/simtime"
)

// patterned returns n bytes that differ from a zeroed or constant
// buffer, so an aliasing bug cannot hide behind equal contents.
func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed
	}
	return b
}

// TestCarouselOwnsPayloads: the carousel must not alias the caller's
// buffers. Mutating the slices handed to Start or Update must leave the
// on-air bytes, and their advertised hash, untouched; delivered slices
// must be clipped so a receiver's append cannot write into them.
func TestCarouselOwnsPayloads(t *testing.T) {
	clk := simtime.NewSim(epoch)
	img := patterned(1000, 1) // not a size class: a copy via append would over-allocate
	orig := bytes.Clone(img)
	b := startBroadcaster(t, clk, 1e6, File{Name: "image", Data: img})
	for i := range img {
		img[i] = 0xEE
	}

	next := patterned(3000, 2)
	nextOrig := bytes.Clone(next)
	cache := NewChunkCache(0)
	var got [][]byte
	deliver := func(data []byte, _ time.Time, err error) {
		if err != nil {
			t.Errorf("delivery: %v", err)
			return
		}
		got = append(got, data)
	}
	clk.Go(func() {
		b.RequestFile("image", FileGranularity, deliver)
		b.RequestFileCached("image", cache, FileGranularity, deliver) // miss: fills the cache
		clk.Sleep(2 * b.CycleDuration())
		b.RequestFileCached("image", cache, FileGranularity, deliver) // hit
		clk.Sleep(b.CycleDuration())
		if err := b.Update([]File{{Name: "image", Data: next}}); err != nil {
			t.Error(err)
		}
		next[0] ^= 0xFF // before the commit at the cycle boundary
		clk.Sleep(3 * b.CycleDuration())
		b.RequestFile("image", FileGranularity, deliver)
	})
	clk.Wait()
	if len(got) != 4 {
		t.Fatalf("deliveries = %d, want 4", len(got))
	}
	if !cache.Contains(HashOf(orig)) {
		t.Fatal("cached read did not fill the chunk cache")
	}
	for i, d := range got {
		want := orig
		if i == 3 {
			want = nextOrig
		}
		if !bytes.Equal(d, want) {
			t.Fatalf("delivery %d: bytes changed with the caller's buffer", i)
		}
		if cap(d) != len(d) {
			t.Fatalf("delivery %d: cap %d != len %d", i, cap(d), len(d))
		}
	}
	l, err := b.car.Layout()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range b.car.Files() {
		e, _ := l.Entry(f.Name)
		if HashOf(f.Data) != e.Hash {
			t.Fatalf("%s: on-air bytes hash %v, layout advertises %v", f.Name, HashOf(f.Data), e.Hash)
		}
	}
	if h, _ := l.Entry("image"); h.Hash != HashOf(nextOrig) {
		t.Fatal("layout hash is not the hash of the updated content")
	}
}

// fanoutAlloc reports the bytes allocated while n receivers each obtain
// one file of the given size from a running broadcaster.
func fanoutAlloc(t *testing.T, n, size int) uint64 {
	clk := simtime.NewSim(epoch)
	b := startBroadcaster(t, clk, 1e6, File{Name: "image", Data: patterned(size, 3)})
	delivered := 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		b.RequestFile("image", FileGranularity, func(data []byte, _ time.Time, err error) {
			if err == nil && len(data) == size {
				delivered++
			}
		})
	}
	clk.Wait()
	runtime.ReadMemStats(&after)
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestFanoutAllocFlatInImageSize: one broadcast reaches every receiver,
// so fanning an image out must cost the host the same whatever its
// size — a per-receiver copy would add N × size.
func TestFanoutAllocFlatInImageSize(t *testing.T) {
	const receivers = 256
	fanoutAlloc(t, receivers, 4<<10) // warm up lazily initialized state
	small := fanoutAlloc(t, receivers, 4<<10)
	large := fanoutAlloc(t, receivers, 1<<20)
	t.Logf("fan-out to %d receivers: %d B at 4 KiB, %d B at 1 MiB", receivers, small, large)
	if diff := int64(large) - int64(small); diff >= 64<<10 {
		t.Fatalf("fan-out to %d receivers allocates %d B at 1 MiB vs %d B at 4 KiB (+%d B): bytes are copied per receiver",
			receivers, large, small, diff)
	}
}

func BenchmarkBroadcasterFanout(b *testing.B) {
	for _, n := range []int{32, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			img := patterned(1<<20, 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clk := simtime.NewSim(epoch)
				car, err := NewCarousel(0x300, 0)
				if err != nil {
					b.Fatal(err)
				}
				bc, err := NewBroadcaster(clk, car, 1e6)
				if err != nil {
					b.Fatal(err)
				}
				if err := bc.Start([]File{{Name: "image", Data: img}}); err != nil {
					b.Fatal(err)
				}
				for r := 0; r < n; r++ {
					bc.RequestFile("image", FileGranularity, func([]byte, time.Time, error) {})
				}
				clk.Wait()
			}
		})
	}
}
