package main

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/journal"
	"oddci/internal/middleware"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/transport"
	"oddci/internal/workload"
)

// layerInputs are the workload inputs the timed layer calls run on.
type layerInputs struct {
	seed        int64
	nodes       int
	replication int
	target      int
	heartbeat   time.Duration
	job         *workload.Job
	image       *appimage.Image
	next        *appimage.Image // the image after one recomposition
	timeScale   float64         // TCP agents' task-time divisor
}

// layerTimes are the per-operation host costs of each layer's public
// functions, in nanoseconds.
type layerTimes struct {
	handoff, send                   float64
	deliverImage, deliverSmall      float64
	imageBytes, smallBytes          float64
	encodeCycle, encodeDelta        float64
	verify, open, heartbeat         float64
	dispatch, commit, journalAppend float64
	tcpHandoff, codec, staging      float64
	spanOn, spanOff                 float64
}

// benchTimer times calls into the program, each inside a span of the
// benchmark's own collector, and keeps the median of a few repetitions.
type benchTimer struct {
	spans *span.Collector
	root  *span.Span
}

func newBenchTimer(workload string) *benchTimer {
	c := span.NewCollector(span.Config{Clock: simtime.NewReal(), Capacity: 1 << 14})
	root := c.Root("layers", "e2ebench")
	root.SetDetail("workload=%s", workload)
	return &benchTimer{spans: c, root: root}
}

// measure runs fn reps times; fn performs ops operations per call. It
// returns the median nanoseconds per operation.
func (t *benchTimer) measure(name string, reps, ops int, fn func()) float64 {
	var per []float64
	for r := 0; r < reps; r++ {
		sp := t.spans.Start(t.root.Context(), name, "e2ebench")
		start := time.Now()
		fn()
		el := time.Since(start)
		ns := float64(el.Nanoseconds()) / float64(ops)
		sp.SetDetail("rep=%d ops=%d ns_per_op=%.1f", r, ops, ns)
		sp.End()
		per = append(per, ns)
	}
	return median(per)
}

// writeJSONL ends the root span and writes every benchmark-side span.
func (t *benchTimer) writeJSONL(path string) error {
	t.root.End()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.spans.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measureLayers times every layer's public entry point on in. Each
// layer is timed on every workload so the breakdowns compare; a layer a
// workload does not use contributes count 0 to its share.
func measureLayers(t *benchTimer, in layerInputs, dir string) (layerTimes, error) {
	var lt layerTimes
	var err error
	key := ed25519.NewKeyFromSeed(seedBytes(in.seed, ed25519.SeedSize))
	pub := key.Public().(ed25519.PublicKey)
	raw, err := in.image.Encode()
	if err != nil {
		return lt, err
	}
	nextRaw, err := in.next.Encode()
	if err != nil {
		return lt, err
	}
	digest := appimage.DigestOf(raw)
	ctrl, err := control.SignWakeup(&control.Wakeup{
		InstanceID: 1, Seq: 1, Probability: 1, ImageFile: "image.1",
		ImageDigest: digest, HeartbeatPeriod: in.heartbeat,
	}, key)
	if err != nil {
		return lt, err
	}
	files := []dsmcc.File{
		{Name: "pna.xlet", Data: []byte("oddci-pna-xlet-v1")},
		{Name: "oddci.config", Data: ctrl},
		{Name: "image.1", Data: raw},
	}

	// simtime: one actor parking and waking through Sleep.
	const sleeps = 20000
	lt.handoff = t.measure("simtime.Sleep", 3, sleeps, func() {
		sim := simtime.NewSim(epoch)
		sim.Go(func() {
			for i := 0; i < sleeps; i++ {
				sim.Sleep(time.Millisecond)
			}
		})
		sim.Wait()
	})

	// netsim: request/reply over a duplex direct channel, Link.Send to
	// Mailbox.Recv, with the deployment's default channel shape.
	const pings = 10000
	lt.send = t.measure("netsim.Link.Send", 3, 2*pings, func() {
		sim := simtime.NewSim(epoch)
		link := netsim.LinkConfig{RateBps: 150e3}
		node, srv := netsim.NewDuplex(sim, "node", "backend", link, link)
		sim.Go(func() {
			for i := 0; i < pings; i++ {
				pkt, err := srv.Recv()
				if err != nil {
					return
				}
				srv.Send(pkt.From, pkt.Payload, backend.NoTaskWireSize)
			}
		})
		sim.Go(func() {
			req := &backend.TaskRequest{NodeID: 1}
			for i := 0; i < pings; i++ {
				node.Send("backend", req, backend.RequestWireSize)
				if _, err := node.Recv(); err != nil {
					return
				}
			}
			node.Close()
			srv.Close()
		})
		sim.Wait()
	})

	// dsmcc: carousel delivery of the image and of the small files (the
	// Xlet and the control file), and TS/section encoding of the full
	// and the delta cycle.
	rounds := max(8, (64<<20)/len(raw))
	lt.deliverImage = t.measure("dsmcc.Broadcaster.RequestFile.image", 3, rounds, func() {
		if e := deliverRounds(files, files[2:], rounds); e != nil {
			err = e
		}
	})
	const smallRounds = 5000
	lt.deliverSmall = t.measure("dsmcc.Broadcaster.RequestFile.small", 3, 2*smallRounds, func() {
		if e := deliverRounds(files, files[:2], smallRounds); e != nil {
			err = e
		}
	})
	if err != nil {
		return lt, err
	}
	lt.imageBytes = float64(len(raw))
	lt.smallBytes = float64(len(files[0].Data)+len(files[1].Data)) / 2
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		return lt, err
	}
	if err := car.SetFiles(files); err != nil {
		return lt, err
	}
	lt.encodeCycle = t.measure("dsmcc.Carousel.EncodeCycle", 5, 1, func() {
		if _, e := car.EncodeCycle(); e != nil {
			err = e
		}
	})
	nextFiles := append([]dsmcc.File(nil), files...)
	nextFiles[2] = dsmcc.File{Name: "image.1", Data: nextRaw}
	var deltas []float64
	for r := 0; r < 5 && err == nil; r++ {
		if err = car.SetFiles(files); err != nil {
			break
		}
		if err = car.SetFiles(nextFiles); err != nil {
			break
		}
		deltas = append(deltas, t.measure("dsmcc.Carousel.EncodeDeltaCycle", 1, 1, func() {
			if _, e := car.EncodeDeltaCycle(); e != nil {
				err = e
			}
		}))
	}
	if err != nil {
		return lt, err
	}
	lt.encodeDelta = median(deltas)

	// appimage: digest check and decode of the staged image, keeping
	// each decoded image as a joined node does.
	verifies := max(4, (32<<20)/len(raw))
	lt.verify = t.measure("appimage.Verify", 3, verifies, func() {
		kept := make([]*appimage.Image, 0, verifies)
		for i := 0; i < verifies; i++ {
			img, e := appimage.Verify(raw, digest)
			if e != nil {
				err = e
			}
			kept = append(kept, img)
		}
	})
	// control: signature check of the aired control file.
	const opens = 500
	lt.open = t.measure("control.OpenAll", 3, opens, func() {
		for i := 0; i < opens; i++ {
			if _, e := control.OpenAll(ctrl, pub); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return lt, err
	}

	if lt.heartbeat, err = timeHeartbeats(t, in, key); err != nil {
		return lt, err
	}
	if lt.dispatch, lt.commit, err = timeBackend(t, in); err != nil {
		return lt, err
	}
	if lt.journalAppend, err = timeJournal(t, raw, filepath.Join(dir, "journal-bench")); err != nil {
		return lt, err
	}
	if err := timeTransport(t, in, &lt); err != nil {
		return lt, err
	}
	timeSpans(t, &lt)
	return lt, nil
}

func seedBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed ^ 0x5EED)).Read(b)
	return b
}

// deliverRounds airs files on a fresh broadcaster and, rounds times,
// has one receiver request each of want and waits for the deliveries.
func deliverRounds(files, want []dsmcc.File, rounds int) error {
	sim := simtime.NewSim(epoch)
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		return err
	}
	b, err := dsmcc.NewBroadcaster(sim, car, 1e6)
	if err != nil {
		return err
	}
	if err := b.Start(files); err != nil {
		return err
	}
	// Receivers keep what they were delivered, as a deployment's
	// set-top boxes do, so the heap grows as it does in a run.
	var mu sync.Mutex
	var firstErr error
	var kept [][]byte
	for r := 0; r < rounds; r++ {
		for _, f := range want {
			b.RequestFile(f.Name, dsmcc.FileGranularity, func(data []byte, _ time.Time, err error) {
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				kept = append(kept, data)
				mu.Unlock()
			})
		}
		sim.Wait()
	}
	return firstErr
}

// timeHeartbeats feeds a Controller running the workload's instance one
// heartbeat per node per round: members report busy, the rest idle.
func timeHeartbeats(t *benchTimer, in layerInputs, key ed25519.PrivateKey) (float64, error) {
	sim := simtime.NewSim(epoch)
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		return 0, err
	}
	b, err := dsmcc.NewBroadcaster(sim, car, 1e6)
	if err != nil {
		return 0, err
	}
	ctrl, err := controller.New(controller.Config{
		Clock: sim, Broadcaster: b, Signalling: middleware.NewSignalling(sim, 0),
		Key: key, Rng: rand.New(rand.NewSource(in.seed)),
	})
	if err != nil {
		return 0, err
	}
	if err := ctrl.Start(); err != nil {
		return 0, err
	}
	defer ctrl.Stop()
	id, err := ctrl.CreateInstance(controller.InstanceSpec{
		Image: in.image, Target: in.target, InitialProbability: 1, HeartbeatPeriod: in.heartbeat,
	})
	if err != nil {
		return 0, err
	}
	profile := instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100}
	hbs := make([]*control.Heartbeat, in.nodes)
	for i := range hbs {
		hb := &control.Heartbeat{NodeID: uint64(i + 1), State: control.StateIdle, Profile: profile, SentAt: epoch}
		if i < in.target {
			hb.State, hb.InstanceID = control.StateBusy, id
		}
		hbs[i] = hb
	}
	rounds := max(1, 50000/in.nodes)
	return t.measure("controller.HandleHeartbeat", 3, rounds*in.nodes, func() {
		for r := 0; r < rounds; r++ {
			for _, hb := range hbs {
				ctrl.HandleHeartbeat(hb)
			}
		}
	}), nil
}

// timeBackend dispatches the workload's tasks at its replication to
// distinct nodes, then returns every replica's correct result.
// It returns ns per dispatch and ns per committed task.
func timeBackend(t *benchTimer, in layerInputs) (float64, float64, error) {
	var dispatches, commits []float64
	tasks := in.job.Tasks
	if len(tasks) > 20000 {
		tasks = tasks[:20000]
	}
	job := &workload.Job{Name: in.job.Name, ImageBytes: in.job.ImageBytes, Tasks: tasks}
	for r := 0; r < 3; r++ {
		sim := simtime.NewSim(epoch)
		be, err := backend.New(backend.Config{Clock: sim, Replication: in.replication})
		if err != nil {
			return 0, 0, err
		}
		if _, err := be.Submit(job); err != nil {
			return 0, 0, err
		}
		nodes := max(in.nodes, in.replication)
		assigns := make([]*backend.TaskAssign, 0, len(tasks)*in.replication)
		owner := make([]uint64, 0, cap(assigns))
		d := t.measure("backend.HandleRequest", 1, len(tasks)*in.replication, func() {
			idle := 0
			for n := 0; idle < nodes; n++ {
				node := uint64(n%nodes + 1)
				a, ok := be.HandleRequest(&backend.TaskRequest{NodeID: node}).(*backend.TaskAssign)
				if !ok {
					idle++
					continue
				}
				idle = 0
				assigns = append(assigns, a)
				owner = append(owner, node)
			}
		})
		if len(assigns) != len(tasks)*in.replication {
			return 0, 0, fmt.Errorf("backend bench dispatched %d slots, want %d", len(assigns), len(tasks)*in.replication)
		}
		c := t.measure("backend.HandleResult", 1, len(tasks), func() {
			for i, a := range assigns {
				be.HandleResult(&backend.TaskResult{NodeID: owner[i], JobID: a.JobID, TaskID: a.TaskID, Payload: taskResult(a.Payload)})
			}
		})
		if be.Completed != int64(len(tasks)) {
			return 0, 0, fmt.Errorf("backend bench committed %d of %d tasks", be.Completed, len(tasks))
		}
		dispatches = append(dispatches, d)
		commits = append(commits, c)
	}
	return median(dispatches), median(commits), nil
}

// timeJournal appends the workload's create record (image included)
// with the deployment's durability, fsync per record.
func timeJournal(t *benchTimer, raw []byte, dir string) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, err
	}
	rec := journal.Record{Op: journal.OpCreate, Inst: journal.InstanceRecord{
		ID: 1, Seq: 1, Wakeups: 1, Probability: 1, Target: 1, ImageFile: "image.1", Image: raw,
	}}
	const appends = 16
	ns := t.measure("journal.Store.Append", 3, appends, func() {
		for i := 0; i < appends; i++ {
			if e := st.Append(rec); e != nil {
				err = e
			}
		}
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return ns, err
}

// timeTransport times the TCP task plane: the binary codec of one
// request/assign/result exchange, and a node agent's staging and task
// hand-off against a loopback coordinator serving the workload's image.
func timeTransport(t *benchTimer, in layerInputs, lt *layerTimes) error {
	var err error
	req := transport.TaskRequestMsg{NodeID: 7}
	asg := transport.TaskAssignMsg{JobID: 1, TaskID: 42, RefSeconds: 1, OutputSize: 256}
	res := transport.TaskResultMsg{NodeID: 7, JobID: 1, TaskID: 42}
	const exchanges = 100000
	var buf []byte
	lt.codec = t.measure("transport.codec", 3, exchanges, func() {
		var r transport.TaskRequestMsg
		var a transport.TaskAssignMsg
		var s transport.TaskResultMsg
		for i := 0; i < exchanges && err == nil; i++ {
			buf = transport.AppendTaskRequest(buf[:0], &req)
			err = transport.DecodeTaskRequest(buf, &r)
			buf = transport.AppendTaskAssign(buf[:0], &asg)
			if err == nil {
				err = transport.DecodeTaskAssign(buf, &a)
			}
			buf = transport.AppendTaskResult(buf[:0], &res)
			if err == nil {
				err = transport.DecodeTaskResult(buf, &s)
			}
		}
	})
	if err != nil {
		return err
	}
	handoffs := min(len(in.job.Tasks), 20000)
	var one, many []float64
	for r := 0; r < 3; r++ {
		d1, err := agentRun(t, in, 1)
		if err != nil {
			return err
		}
		dk, err := agentRun(t, in, handoffs)
		if err != nil {
			return err
		}
		one = append(one, float64(d1.Nanoseconds()))
		many = append(many, float64(dk.Nanoseconds()))
	}
	lt.tcpHandoff = max(0, (median(many)-median(one))/float64(handoffs-1))
	lt.staging = max(0, median(one)-2*lt.tcpHandoff)
	return nil
}

// agentRun runs one node agent against a fresh loopback coordinator
// holding a job of n near-zero tasks, and returns the agent's run time:
// dial, staging, n request→assign→result hand-offs and the final poll.
func agentRun(t *benchTimer, in layerInputs, n int) (time.Duration, error) {
	coord, err := transport.NewCoordinator(transport.CoordinatorConfig{
		Listen: "127.0.0.1:0", Image: in.image, HeartbeatPeriod: time.Minute,
	})
	if err != nil {
		return 0, err
	}
	served := make(chan struct{})
	go func() {
		coord.Serve()
		close(served)
	}()
	defer func() {
		coord.Close()
		<-served
	}()
	tasks := make([]workload.Task, n)
	for i := range tasks {
		tasks[i] = workload.Task{ID: i, InputBytes: 512, OutputBytes: 256, STBSeconds: 1e-3}
	}
	if _, err := coord.Submit(&workload.Job{Name: "agent", ImageBytes: len(in.image.Payload), Tasks: tasks}); err != nil {
		return 0, err
	}
	sp := t.spans.Start(t.root.Context(), "transport.RunNode", "e2ebench")
	start := time.Now()
	rep, err := transport.RunNode(transport.NodeConfig{Addr: coord.Addr(), NodeID: 1, TimeScale: in.timeScale, Seed: in.seed})
	el := time.Since(start)
	sp.SetDetail("tasks=%d ns=%d", n, el.Nanoseconds())
	sp.End()
	if err != nil {
		return 0, err
	}
	if rep.TasksDone != n {
		return 0, fmt.Errorf("agent did %d of %d tasks", rep.TasksDone, n)
	}
	return el, nil
}

// timeSpans times one root and one child span, sampled and unsampled:
// the cost of recording a hop, and of carrying instrumentation that
// records nothing.
func timeSpans(t *benchTimer, lt *layerTimes) {
	const n = 100000
	hop := func(c *span.Collector) {
		for i := 0; i < n; i++ {
			root := c.Root("wakeup", "bench")
			child := c.Start(root.Context(), "dispatch", "bench")
			child.End()
			root.End()
		}
	}
	on := span.NewCollector(span.Config{Clock: simtime.NewReal()})
	off := span.NewCollector(span.Config{Clock: simtime.NewReal(), SampleRate: -1})
	lt.spanOn = t.measure("span.record", 3, 2*n, func() { hop(on) })
	lt.spanOff = t.measure("span.off", 3, 2*n, func() { hop(off) })
}
