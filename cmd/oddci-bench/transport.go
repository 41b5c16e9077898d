package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/instance"
	"oddci/internal/span"
	"oddci/internal/transport"
)

func benchCoordinator(imageKB int, spans *span.Collector) (*transport.Coordinator, error) {
	img := &appimage.Image{
		Name: "bench", Version: 1, EntryPoint: "w",
		Payload: make([]byte, imageKB<<10),
	}
	coord, err := transport.NewCoordinator(transport.CoordinatorConfig{
		Listen: "127.0.0.1:0",
		Name:   "bench",
		Image:  img,
		Spans:  spans,
	})
	if err != nil {
		return nil, err
	}
	go coord.Serve()
	return coord, nil
}

// rawClient is a minimal bench-side node: it speaks the wire protocol
// directly so the measured loop contains exactly the frames under test.
type rawClient struct {
	conn net.Conn
	fr   *transport.FrameReader
	bw   *bufio.Writer
}

func (c *rawClient) Close() {
	c.fr.Close()
	c.conn.Close()
}

// dialAndStage completes the banner/hello/broadcast exchange and
// returns the connected client plus the staged payload bytes received.
func dialAndStage(addr string, nodeID uint64) (*rawClient, int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	fr := transport.NewFrameReader(conn)
	fail := func(err error) (*rawClient, int, error) {
		fr.Close()
		conn.Close()
		return nil, 0, err
	}
	t, payload, err := fr.Next()
	if err != nil {
		return fail(err)
	}
	if t != transport.FrameBanner {
		return fail(fmt.Errorf("first frame type %d, want banner", t))
	}
	var banner transport.Banner
	if err := json.Unmarshal(payload, &banner); err != nil {
		return fail(err)
	}
	if !banner.TaskBin {
		return fail(fmt.Errorf("coordinator does not advertise the binary task plane"))
	}
	bw := bufio.NewWriterSize(conn, 4<<10)
	hello, err := json.Marshal(&transport.Hello{NodeID: nodeID})
	if err != nil {
		return fail(err)
	}
	if err := transport.WriteFrame(bw, transport.FrameHello, hello); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	staged := 0
	var sawControl, sawImage bool
	for !sawControl || !sawImage {
		t, p, err := fr.Next()
		if err != nil {
			return fail(fmt.Errorf("staging read: %w", err))
		}
		staged += len(p)
		switch t {
		case transport.FrameControl:
			sawControl = true
		case transport.FrameImage:
			sawImage = true
		}
	}
	return &rawClient{conn: conn, fr: fr, bw: bw}, staged, nil
}

// stagingRun pushes the ~2 MB broadcast to n concurrent sessions and
// reports throughput plus the coordinator's encode counter — the
// paper's O(1)-in-N invariant shows up as that counter staying flat
// between the n=1 and n=100 rows.
func stagingRun(n int) (map[string]float64, error) {
	coord, err := benchCoordinator(2<<10, nil) // 2 MB image
	if err != nil {
		return nil, err
	}
	defer coord.Close()

	staged := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, got, err := dialAndStage(coord.Addr(), uint64(i+1))
			if err != nil {
				errs[i] = err
				return
			}
			cl.Close()
			staged[i] = got
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total int64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("staging session %d: %w", i+1, errs[i])
		}
		total += int64(staged[i])
	}
	return map[string]float64{
		"iterations":           float64(n),
		"ns_per_op":            float64(elapsed.Nanoseconds()) / float64(n),
		"ops_per_sec":          float64(n) / elapsed.Seconds(),
		"broadcast_encodes":    float64(coord.BroadcastEncodes()),
		"staged_bytes":         float64(total),
		"staged_bytes_per_sec": float64(total) / elapsed.Seconds(),
	}, nil
}

// benchHeartbeatRTT round-trips a pre-encoded heartbeat frame against a
// live session: one write + one pre-encoded reply per op.
func benchHeartbeatRTT(failed *atomic.Bool) func(b *testing.B) {
	return func(b *testing.B) {
		coord, err := benchCoordinator(32, nil)
		if err != nil {
			failed.Store(true)
			return
		}
		defer coord.Close()
		cl, _, err := dialAndStage(coord.Addr(), 1)
		if err != nil {
			failed.Store(true)
			return
		}
		defer cl.Close()
		hb := &control.Heartbeat{
			NodeID: 1, State: control.StateBusy, InstanceID: 1,
			Profile: instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100},
			SentAt:  time.Now(),
		}
		frame, err := transport.AppendFrame(nil, transport.FrameHeartbeat, control.EncodeHeartbeat(hb))
		if err != nil {
			failed.Store(true)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.bw.Write(frame); err != nil {
				b.Fatal(err)
			}
			if err := cl.bw.Flush(); err != nil {
				b.Fatal(err)
			}
			t, _, err := cl.fr.Next()
			if err != nil {
				b.Fatal(err)
			}
			if t != transport.FrameHeartbeatReply {
				failed.Store(true)
				return
			}
		}
	}
}

// benchTaskHandoff measures one full hand-off per op — request,
// assign, result — over real loopback TCP. The binary variant mirrors
// the fast-path node (prebuilt request frame, reused buffers); the JSON
// variant mirrors a pre-fast-path node (per-op marshal/unmarshal).
// testing.Benchmark's alloc counters are process-wide, so both sides of
// each hand-off are in the numbers. spans is the coordinator's span
// collector: nil untraced, or sampled-off for the obs sweep's overhead
// probe.
func benchTaskHandoff(binaryPlane bool, spans *span.Collector) func(failed *atomic.Bool) func(b *testing.B) {
	return func(failed *atomic.Bool) func(b *testing.B) {
		return func(b *testing.B) {
			coord, err := benchCoordinator(32, spans)
			if err != nil {
				failed.Store(true)
				return
			}
			defer coord.Close()
			// Keep a floor of backlog beyond b.N so the dispatcher never
			// comes up empty mid-measurement.
			const floor = 10_000
			if err := submitBacklog(coord.Backend(), b.N+floor); err != nil {
				failed.Store(true)
				return
			}
			cl, _, err := dialAndStage(coord.Addr(), 1)
			if err != nil {
				failed.Store(true)
				return
			}
			defer cl.Close()
			var reqFrame, wbuf []byte
			if binaryPlane {
				reqFrame = transport.BeginFrame(nil, transport.FrameTaskRequestBin)
				reqFrame = transport.AppendTaskRequest(reqFrame, &transport.TaskRequestMsg{NodeID: 1})
				if reqFrame, err = transport.EndFrame(reqFrame, 0); err != nil {
					failed.Store(true)
					return
				}
			}
			var assign transport.TaskAssignMsg
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if binaryPlane {
					_, err = cl.bw.Write(reqFrame)
				} else {
					var raw []byte
					if raw, err = json.Marshal(&transport.TaskRequestMsg{NodeID: 1}); err == nil {
						err = transport.WriteFrame(cl.bw, transport.FrameTaskRequest, raw)
					}
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := cl.bw.Flush(); err != nil {
					b.Fatal(err)
				}
				t, payload, err := cl.fr.Next()
				if err != nil {
					b.Fatal(err)
				}
				switch t {
				case transport.FrameTaskAssignBin:
					err = transport.DecodeTaskAssign(payload, &assign)
				case transport.FrameTaskAssign:
					assign = transport.TaskAssignMsg{}
					err = json.Unmarshal(payload, &assign)
				default:
					// NoTask with backlog pending invalidates the run.
					failed.Store(true)
					return
				}
				if err != nil {
					b.Fatal(err)
				}
				res := transport.TaskResultMsg{NodeID: 1, JobID: assign.JobID, TaskID: assign.TaskID}
				if binaryPlane {
					wbuf = transport.BeginFrame(wbuf[:0], transport.FrameTaskResultBin)
					wbuf = transport.AppendTaskResult(wbuf, &res)
					if wbuf, err = transport.EndFrame(wbuf, 0); err != nil {
						b.Fatal(err)
					}
					_, err = cl.bw.Write(wbuf)
				} else {
					var raw []byte
					if raw, err = json.Marshal(&res); err == nil {
						err = transport.WriteFrame(cl.bw, transport.FrameTaskResult, raw)
					}
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := cl.bw.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// sweepTransport benchmarks the transport fast path over loopback TCP
// and enforces two invariants: the broadcast encode counter must stay
// flat from 1 to 100 staging sessions, and the binary task plane must
// cut allocs per hand-off at least 2× versus the JSON baseline measured
// in the same run.
func sweepTransport(r *recorder, _ int64) error {
	var encodes [2]float64
	for i, n := range []int{1, 100} {
		m, err := stagingRun(n)
		if err != nil {
			return err
		}
		encodes[i] = m["broadcast_encodes"]
		r.row(fmt.Sprintf("staging_n%d", n), m)
	}
	r.check("broadcast encodes flat n=1 vs n=100", encodes[0] == encodes[1],
		"broadcast encodes not flat in session count: %.0f at n=1 vs %.0f at n=100", encodes[0], encodes[1])

	r.bench("heartbeat_rtt", benchHeartbeatRTT)
	bin, okBin := r.bench("task_handoff_binary", benchTaskHandoff(true, nil))
	js, okJS := r.bench("task_handoff_json", benchTaskHandoff(false, nil))
	if okBin && okJS {
		r.check("binary task plane allocs >= 2x JSON", js["allocs_per_op"] >= 2*bin["allocs_per_op"],
			"binary task plane saves too little: %.0f allocs/op vs %.0f JSON (want >= 2x)",
			bin["allocs_per_op"], js["allocs_per_op"])
	}
	return nil
}
