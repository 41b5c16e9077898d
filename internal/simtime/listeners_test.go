package simtime

import (
	"reflect"
	"testing"
)

// TestListenersOrderAndCancel: a snapshot lists listeners in
// registration order whatever their number, cancel removes exactly its
// own listener (twice is a no-op), and later registrations go last.
func TestListenersOrderAndCancel(t *testing.T) {
	var l Listeners[func() int]
	cancels := make([]func(), 0, 40)
	for i := 0; i < 40; i++ {
		i := i
		cancels = append(cancels, l.Add(func() int { return i }))
	}
	fire := func() []int {
		var got []int
		for _, fn := range l.Snapshot() {
			got = append(got, fn())
		}
		return got
	}
	want := make([]int, 40)
	for i := range want {
		want[i] = i
	}
	if got := fire(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want registration order %v", got, want)
	}

	cancels[0]()
	cancels[17]()
	cancels[17]()
	cancels[39]()
	l.Add(func() int { return 100 })
	want = append(append(append([]int(nil), want[1:17]...), want[18:39]...), 100)
	if got := fire(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after cancels fired %v, want %v", got, want)
	}
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
}

// TestListenersSnapshotIsolated: a snapshot taken before a cancel or an
// Add is unaffected by them, so callbacks may change the registry while
// a fan-out is running.
func TestListenersSnapshotIsolated(t *testing.T) {
	var l Listeners[func() int]
	cancel := l.Add(func() int { return 1 })
	l.Add(func() int { return 2 })
	snap := l.Snapshot()
	cancel()
	l.Add(func() int { return 3 })
	if len(snap) != 2 || snap[0]() != 1 || snap[1]() != 2 {
		t.Fatal("snapshot changed after cancel/Add")
	}
}
