package main

import (
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/core/backend"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

func backendJob(n int) *workload.Job {
	tasks := make([]workload.Task, n)
	for i := range tasks {
		tasks[i] = workload.Task{ID: i, InputBytes: 64, OutputBytes: 32, STBSeconds: 1}
	}
	return &workload.Job{Name: "bench", Tasks: tasks}
}

// submitBacklog queues tasks on be as jobs of at most 100k tasks each.
func submitBacklog(be *backend.Backend, tasks int) error {
	for submitted := 0; submitted < tasks; {
		n := min(tasks-submitted, 100_000)
		if _, err := be.Submit(backendJob(n)); err != nil {
			return err
		}
		submitted += n
	}
	return nil
}

// backendUnderTest builds a real-clock backend with tasks queued; track
// arms per-node credibility tracking.
func backendUnderTest(tasks int, track bool) (*backend.Backend, error) {
	be, err := backend.New(backend.Config{Clock: simtime.NewReal(), LeaseBase: time.Hour, TrackCredibility: track})
	if err != nil {
		return nil, err
	}
	return be, submitBacklog(be, tasks)
}

// The three harnesses mirror the Benchmark* functions in
// internal/core/backend/bench_test.go so `go test -bench` and this
// command report the same paths. starved flags a dispatch that came up
// empty despite a pending backlog, which invalidates the measurement.

// benchDispatch measures dispatch; with track set, per-node credibility
// tracking is armed — the only cost an all-honest deployment pays is
// the quarantine fast-path check on dispatch.
func benchDispatch(track bool) func(starved *atomic.Bool) func(b *testing.B) {
	return func(starved *atomic.Bool) func(b *testing.B) {
		return func(b *testing.B) {
			const floor = 10_000
			be, err := backendUnderTest(b.N+floor, track)
			if err != nil {
				starved.Store(true)
				return
			}
			var nodeSeq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				node := nodeSeq.Add(1)
				for pb.Next() {
					if _, ok := be.HandleRequest(&backend.TaskRequest{NodeID: node}).(*backend.TaskAssign); !ok {
						starved.Store(true)
						return
					}
				}
			})
		}
	}
}

func benchResult(starved *atomic.Bool) func(b *testing.B) {
	return func(b *testing.B) {
		be, err := backendUnderTest(b.N, false)
		if err != nil {
			starved.Store(true)
			return
		}
		assigns := make([]*backend.TaskAssign, 0, b.N)
		for i := 0; i < b.N; i++ {
			a, ok := be.HandleRequest(&backend.TaskRequest{NodeID: uint64(i%4096 + 1)}).(*backend.TaskAssign)
			if !ok {
				starved.Store(true)
				return
			}
			assigns = append(assigns, a)
		}
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := next.Add(1) - 1
				a := assigns[i]
				be.HandleResult(&backend.TaskResult{NodeID: uint64(i%4096 + 1),
					JobID: a.JobID, TaskID: a.TaskID, Payload: []byte("r")})
			}
		})
	}
}

func benchEndToEnd(starved *atomic.Bool) func(b *testing.B) {
	return func(b *testing.B) {
		be, err := backendUnderTest(((b.N/100_000)+1)*100_000, false)
		if err != nil {
			starved.Store(true)
			return
		}
		var nodeSeq atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			node := nodeSeq.Add(1)
			for pb.Next() {
				a, ok := be.HandleRequest(&backend.TaskRequest{NodeID: node}).(*backend.TaskAssign)
				if !ok {
					starved.Store(true)
					return
				}
				be.HandleResult(&backend.TaskResult{NodeID: node, JobID: a.JobID,
					TaskID: a.TaskID, Payload: []byte("r")})
			}
		})
	}
}

// sweepBackend benchmarks the scheduler hot paths.
func sweepBackend(r *recorder, _ int64) error {
	r.bench("dispatch_parallel_10k_backlog", benchDispatch(false))
	r.bench("result_parallel", benchResult)
	r.bench("e2e_throughput_100k", benchEndToEnd)
	return nil
}
