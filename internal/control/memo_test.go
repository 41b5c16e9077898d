package control

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// reset empties the OpenAll memo so a test starts cold.
func (m *openMemo) reset() {
	m.mu.Lock()
	m.entries = nil
	m.mu.Unlock()
}

// controlFile signs a wakeup followed by a reset, both at sequence
// number seq — a two-envelope control file like the one a Controller
// airs.
func controlFile(t testing.TB, priv ed25519.PrivateKey, seq uint32) []byte {
	t.Helper()
	w := sampleWakeup()
	w.Seq = seq
	raw, err := SignWakeup(w, priv)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := SignReset(&Reset{InstanceID: 7, Seq: seq}, priv)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, rst...)
}

func TestOpenAllMemoRejectsBufferMutatedAfterPass(t *testing.T) {
	opened.reset()
	pub, priv := testKeys(t)
	raw := controlFile(t, priv, 1)
	for i := 0; i < 2; i++ { // cold, then memo hit
		if msgs, err := OpenAll(raw, pub); err != nil || len(msgs) != 2 {
			t.Fatalf("pass %d: %d msgs, %v", i, len(msgs), err)
		}
	}
	if !opened.has(raw, pub) {
		t.Fatal("clean control file not remembered")
	}
	// Flip a payload byte, then a signature byte, of the very slice that
	// passed: each must fail, since the memo compares bytes.
	for _, off := range []int{20, len(raw) - 1} {
		raw[off] ^= 0x10
		if _, err := OpenAll(raw, pub); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("byte %d mutated after pass: err = %v, want ErrBadSignature", off, err)
		}
		raw[off] ^= 0x10
	}
	if _, err := OpenAll(raw, pub); err != nil {
		t.Fatalf("restored buffer: %v", err)
	}
}

func TestOpenAllMemoWrongKeyAndTamperedCopy(t *testing.T) {
	opened.reset()
	pub, priv := testKeys(t)
	raw := controlFile(t, priv, 2)
	if _, err := OpenAll(raw, pub); err != nil {
		t.Fatal(err)
	}
	otherPub, _, err := ed25519.GenerateKey(rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAll(raw, otherPub); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("memoized bytes under another key: err = %v, want ErrBadSignature", err)
	}
	// The memo must hold its own copy of the key, too.
	mutPub := bytes.Clone(pub)
	if _, err := OpenAll(raw, mutPub); err != nil {
		t.Fatal(err)
	}
	mutPub[0] ^= 1
	if _, err := OpenAll(raw, mutPub); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("key mutated after pass: err = %v, want ErrBadSignature", err)
	}
	sigFlip := bytes.Clone(raw)
	sigFlip[len(sigFlip)-5] ^= 1
	if _, err := OpenAll(sigFlip, pub); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("flipped signature byte: err = %v, want ErrBadSignature", err)
	}
	if _, err := OpenAll(raw[:len(raw)-1], pub); err == nil {
		t.Fatal("truncated copy opens")
	}
}

func TestOpenAllMemoDecodesAfresh(t *testing.T) {
	opened.reset()
	pub, priv := testKeys(t)
	raw := controlFile(t, priv, 3)
	first, err := OpenAll(raw, pub)
	if err != nil {
		t.Fatal(err)
	}
	first[0].(*Wakeup).Probability = 1
	again, err := OpenAll(raw, pub)
	if err != nil {
		t.Fatal(err)
	}
	if got := again[0].(*Wakeup).Probability; got != sampleWakeup().Probability {
		t.Fatalf("memo hit returned a shared message: probability %v", got)
	}
}

func TestOpenAllMemoBounds(t *testing.T) {
	opened.reset()
	pub, priv := testKeys(t)
	for seq := uint32(1); seq <= 2*memoEntries; seq++ {
		raw := controlFile(t, priv, seq)
		for i := 0; i < 2; i++ {
			if _, err := OpenAll(raw, pub); err != nil {
				t.Fatal(err)
			}
		}
	}
	opened.mu.Lock()
	n := len(opened.entries)
	opened.mu.Unlock()
	if n != memoEntries {
		t.Fatalf("memo holds %d entries, want %d", n, memoEntries)
	}
	if !opened.has(controlFile(t, priv, 2*memoEntries), pub) || opened.has(controlFile(t, priv, 1), pub) {
		t.Fatal("memo did not evict oldest-first")
	}
}

// TestOpenAllConcurrent hammers the memo from many goroutines with good
// and tampered control files; run it under -race.
func TestOpenAllConcurrent(t *testing.T) {
	opened.reset()
	pub, priv := testKeys(t)
	files := make([][]byte, memoEntries+2)
	for i := range files {
		files[i] = controlFile(t, priv, uint32(i+1))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				raw := files[(g+i)%len(files)]
				if msgs, err := OpenAll(raw, pub); err != nil || len(msgs) != 2 {
					errs <- fmt.Errorf("goroutine %d: good file: %v", g, err)
					return
				}
				bad := bytes.Clone(raw)
				bad[len(bad)-1-(g+i)%ed25519.SignatureSize] ^= 0x80
				if _, err := OpenAll(bad, pub); !errors.Is(err, ErrBadSignature) {
					errs <- fmt.Errorf("goroutine %d: tampered file: %v", g, err)
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

func BenchmarkOpenAllCold(b *testing.B) {
	pub, priv := testKeys(b)
	raw := controlFile(b, priv, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opened.reset()
		if _, err := OpenAll(raw, pub); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenAllMemo(b *testing.B) {
	opened.reset()
	pub, priv := testKeys(b)
	raw := controlFile(b, priv, 1)
	if _, err := OpenAll(raw, pub); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenAll(raw, pub); err != nil {
			b.Fatal(err)
		}
	}
}
