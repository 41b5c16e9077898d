// Package simtime provides the virtual-time kernel used by every simulated
// component in the OddCI reproduction.
//
// Components are written against the Clock interface and never touch the
// time package directly. Two implementations exist:
//
//   - Real: thin wrapper over the time package, for wall-clock demos.
//   - Sim: a deterministic discrete-event clock. Goroutines spawned with
//     Go participate in a runnable-count protocol: virtual time only
//     advances when every participating goroutine is blocked in a clock
//     primitive (Sleep or Suspend), at which point the earliest pending
//     timer fires. This yields deterministic, faster-than-real-time
//     execution of unmodified concurrent component code.
//
// The Sim clock doubles as a plain discrete-event engine: with zero
// participating goroutines, scheduling work with AfterFunc and calling
// Wait runs a classic single-threaded event loop, which is how the
// large-N experiment models in internal/sim execute.
package simtime

import "time"

// Timer is a handle to a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// callback from firing (false if it already fired or was stopped).
	Stop() bool
}

// Clock abstracts the flow of time for simulated components.
//
// Rules for code running under a Sim clock:
//
//   - Every long-lived goroutine must be spawned through Go, never the go
//     statement, so the clock can account for it.
//   - Goroutines must block only through clock primitives (Sleep, Suspend)
//     or on synchronization that is itself driven by clock callbacks
//     (e.g. netsim mailboxes). Blocking on anything else stalls virtual
//     time and is reported as a deadlock.
//   - AfterFunc callbacks run on the clock's event loop and must not call
//     blocking clock primitives; they should do bounded work (deliver a
//     message, wake a waiter, schedule more events).
type Clock interface {
	// Now returns the current (virtual or wall) time.
	Now() time.Time

	// Sleep blocks the calling goroutine for d. Non-positive d yields
	// without advancing time ordering guarantees.
	Sleep(d time.Duration)

	// AfterFunc schedules fn to run once, d from now.
	AfterFunc(d time.Duration, fn func()) Timer

	// Go spawns a participating goroutine running fn.
	Go(fn func())

	// Suspend blocks the calling goroutine until the wake function passed
	// to publish is invoked. publish runs synchronously before blocking;
	// it must hand wake to whoever will eventually call it (exactly once).
	// wake may be called from any goroutine, including before publish
	// returns.
	Suspend(publish func(wake func()))

	// Wait blocks until the system is quiescent: all goroutines spawned
	// with Go have returned and (for the Sim clock) no pending events
	// remain that could wake anything. A Sim clock advances virtual time
	// only while a Wait is in progress.
	Wait()
}
