package simtime

import (
	"sort"
	"sync"
)

// Listeners is a registration-ordered callback registry. Fan-out code
// takes a Snapshot (under its own lock, if it has one) and calls the
// result outside every lock, so a callback may register or cancel
// listeners freely. Unlike a map keyed by registration number, the
// snapshot order is the registration order, so every fan-out — and any
// random draw made per listener during it — replays identically under
// the Sim clock. The zero value is ready to use.
type Listeners[F any] struct {
	mu   sync.Mutex
	next uint64
	ids  []uint64 // ascending: registration order
	fns  []F
}

// Add registers fn after every listener already present. The returned
// cancel removes it; calling cancel again is a no-op.
func (l *Listeners[F]) Add(fn F) (cancel func()) {
	l.mu.Lock()
	id := l.next
	l.next++
	l.ids = append(l.ids, id)
	l.fns = append(l.fns, fn)
	l.mu.Unlock()
	return func() { l.remove(id) }
}

func (l *Listeners[F]) remove(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.ids), func(i int) bool { return l.ids[i] >= id })
	if i == len(l.ids) || l.ids[i] != id {
		return
	}
	l.ids = append(l.ids[:i], l.ids[i+1:]...)
	var zero F
	copy(l.fns[i:], l.fns[i+1:])
	l.fns[len(l.fns)-1] = zero
	l.fns = l.fns[:len(l.fns)-1]
}

// Snapshot returns the registered listeners in registration order, as a
// fresh slice the caller owns.
func (l *Listeners[F]) Snapshot() []F {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]F(nil), l.fns...)
}

// Len reports how many listeners are registered.
func (l *Listeners[F]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.fns)
}
