package appimage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// reset empties the verification memo so a test starts cold.
func (m *verifyMemo) reset() {
	m.mu.Lock()
	m.entries = nil
	m.mu.Unlock()
}

func encodedImage(t testing.TB, version uint32, payload int) ([]byte, Digest) {
	t.Helper()
	im := &Image{Name: "worker", Version: version, EntryPoint: "main", Payload: bytes.Repeat([]byte{byte(version)}, payload)}
	raw, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw, DigestOf(raw)
}

func TestVerifyMemoRejectsBufferMutatedAfterPass(t *testing.T) {
	verified.reset()
	raw, d := encodedImage(t, 1, 4096)
	for i := 0; i < 2; i++ { // cold, then memo hit
		if _, err := Verify(raw, d); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	if !verified.has(raw, d) {
		t.Fatal("passing encoding not remembered")
	}
	// The very slice that passed, modified in place, must fail: the
	// memo compares bytes, not slice identity.
	raw[len(raw)/2] ^= 0x40
	if _, err := Verify(raw, d); err == nil {
		t.Fatal("buffer mutated after it passed still verifies")
	}
	raw[len(raw)/2] ^= 0x40
	if _, err := Verify(raw, d); err != nil {
		t.Fatalf("restored buffer: %v", err)
	}
}

func TestVerifyMemoKeepsPrivateCopy(t *testing.T) {
	verified.reset()
	raw, d := encodedImage(t, 2, 1000)
	orig := bytes.Clone(raw)
	if _, err := Verify(raw, d); err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0
	}
	if !verified.has(orig, d) {
		t.Fatal("memo entry changed with the caller's buffer")
	}
	if _, err := Verify(orig, d); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyMemoTamperedCopyFails(t *testing.T) {
	verified.reset()
	raw, d := encodedImage(t, 3, 4096)
	if _, err := Verify(raw, d); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, len(raw) / 2, len(raw) - 1} {
		tampered := bytes.Clone(raw)
		tampered[off] ^= 1
		if _, err := Verify(tampered, d); err == nil {
			t.Fatalf("tampered copy (byte %d) verifies after a memo hit", off)
		}
	}
	if _, err := Verify(raw[:len(raw)-1], d); err == nil {
		t.Fatal("truncated copy verifies")
	}
	// Remembered bytes against another digest are still a mismatch.
	other := d
	other[0] ^= 1
	if _, err := Verify(raw, other); err == nil {
		t.Fatal("memoized bytes verify against a different digest")
	}
}

func TestVerifyMemoBounds(t *testing.T) {
	verified.reset()
	for v := uint32(1); v <= 2*memoEntries; v++ {
		raw, d := encodedImage(t, v, 128)
		if _, err := Verify(raw, d); err != nil {
			t.Fatal(err)
		}
		// Re-verifying an entry must not duplicate it.
		if _, err := Verify(raw, d); err != nil {
			t.Fatal(err)
		}
	}
	verified.mu.Lock()
	n := len(verified.entries)
	verified.mu.Unlock()
	if n != memoEntries {
		t.Fatalf("memo holds %d entries, want %d", n, memoEntries)
	}
	newest, dn := encodedImage(t, 2*memoEntries, 128)
	oldest, do := encodedImage(t, 1, 128)
	if !verified.has(newest, dn) || verified.has(oldest, do) {
		t.Fatal("memo did not evict oldest-first")
	}

	big, db := encodedImage(t, 99, memoBytes)
	if _, err := Verify(big, db); err != nil {
		t.Fatal(err)
	}
	if verified.has(big, db) {
		t.Fatal("encoding over the byte budget was remembered")
	}
	verified.mu.Lock()
	size := 0
	for _, e := range verified.entries {
		size += len(e.raw)
	}
	verified.mu.Unlock()
	if size > memoBytes {
		t.Fatalf("memo holds %d bytes, budget %d", size, memoBytes)
	}
}

// TestVerifyConcurrent hammers the memo from many goroutines with good
// and tampered encodings of several images; run it under -race.
func TestVerifyConcurrent(t *testing.T) {
	verified.reset()
	type img struct {
		raw []byte
		d   Digest
	}
	imgs := make([]img, memoEntries+2)
	for i := range imgs {
		raw, d := encodedImage(t, uint32(i+1), 2048)
		imgs[i] = img{raw, d}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				im := imgs[(g+i)%len(imgs)]
				got, err := Verify(im.raw, im.d)
				if err != nil || !bytes.Equal(got.Payload, im.raw[len(im.raw)-len(got.Payload):]) {
					errs <- fmt.Errorf("goroutine %d: good image: %v", g, err)
					return
				}
				bad := bytes.Clone(im.raw)
				bad[(g*31+i)%len(bad)] ^= 0x80
				if _, err := Verify(bad, im.d); err == nil {
					errs <- fmt.Errorf("goroutine %d: tampered image verified", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkVerifyCold(b *testing.B) {
	raw, d := encodedImage(b, 1, 1<<20)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		verified.reset()
		if _, err := Verify(raw, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyMemo(b *testing.B) {
	verified.reset()
	raw, d := encodedImage(b, 1, 1<<20)
	if _, err := Verify(raw, d); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(raw, d); err != nil {
			b.Fatal(err)
		}
	}
}
