package netsim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/simtime"
)

// parkedOn spins (in real time) until m has want registered waiters, so a
// test can make actors park before the driver finishes its setup.
func parkedOn[T any](t *testing.T, m *Mailbox[T], want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.waiterCount() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d receivers parked", m.waiterCount(), want)
		}
		runtime.Gosched()
	}
}

// TestSimHoldsTimeDuringSetup pins the kernel's hold on virtual time
// outside Wait: actors that park while the driver is still between setup
// calls must neither be advanced past nor reported as deadlocked. Both
// orders are forced on every iteration — readers park before the Put
// that serves them is scheduled, and a server parks before its client
// is spawned — so a kernel that advances whenever no actor is runnable
// panics here on the first iteration.
func TestSimHoldsTimeDuringSetup(t *testing.T) {
	const iterations = 1000
	t.Run("readers_before_put", func(t *testing.T) {
		for it := 0; it < iterations; it++ {
			clk := simtime.NewSim(epoch)
			m := NewMailbox[int](clk)
			const readers = 4
			var served atomic.Int64
			for i := 0; i < readers; i++ {
				clk.Go(func() {
					if _, err := m.Recv(); err == nil {
						served.Add(1)
					}
				})
			}
			parkedOn(t, m, readers)
			clk.AfterFunc(time.Second, func() {
				for i := 0; i < readers; i++ {
					m.Put(i)
				}
			})
			clk.Wait()
			if got := served.Load(); got != readers {
				t.Fatalf("iteration %d: %d of %d readers served", it, got, readers)
			}
			if now := clk.Now(); !now.Equal(epoch.Add(time.Second)) {
				t.Fatalf("iteration %d: readers served at %v, want %v", it, now, epoch.Add(time.Second))
			}
		}
	})
	t.Run("server_before_client", func(t *testing.T) {
		cfg := LinkConfig{RateBps: 150e3, Latency: 50 * time.Millisecond}
		want := 2 * (serialization(1024, 150e3) + 50*time.Millisecond)
		for it := 0; it < iterations; it++ {
			clk := simtime.NewSim(epoch)
			a, b := NewDuplex(clk, "stb", "backend", cfg, cfg)
			clk.Go(func() { // server
				if p, err := b.Recv(); err == nil {
					b.Send(p.From, "resp", 1024)
				}
			})
			parkedOn(t, b.In, 1)
			var rtt time.Duration
			clk.Go(func() { // client
				start := clk.Now()
				a.Send("backend", "req", 1024)
				if _, err := a.Recv(); err == nil {
					rtt = clk.Now().Sub(start)
				}
			})
			clk.Wait()
			if rtt != want {
				t.Fatalf("iteration %d: rtt = %v, want %v", it, rtt, want)
			}
		}
	})
}
