package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"oddci/internal/obs"
	"oddci/internal/span"
	"oddci/internal/transport"
	"oddci/internal/workload"
)

// tcpShape sizes the TCP loopback workload.
type tcpShape struct {
	nodes       int
	imageBytes  int
	tasks       int
	taskSeconds float64 // reference-STB seconds per task, before TimeScale
	// timeScale divides the agents' task and heartbeat times; at 1e4 a
	// one-minute heartbeat period is 6 ms of wall time, slow enough not
	// to crowd the task plane.
	timeScale float64
	heartbeat time.Duration
	// Join latencies come from refPasses short traced passes of
	// refTasks tasks each, which keep every join span in the collector;
	// the first warmPasses of them only warm up.
	refPasses, refTasks, warmPasses int
}

func tcpLoopback(short bool) tcpShape {
	s := tcpShape{
		nodes: 2, imageBytes: 1 << 20, tasks: 100000, taskSeconds: 1e-3,
		timeScale: 1e4, heartbeat: time.Minute, refPasses: 60, refTasks: 20, warmPasses: 5,
	}
	if short {
		s.tasks, s.refPasses, s.warmPasses = 2000, 2, 1
	}
	return s
}

// tcpJob is the workload's job for the TCP task plane: its agents run
// timing tasks and return no payload, so the tasks carry none.
func tcpJob(in *inputs, n int) *workload.Job {
	tasks := make([]workload.Task, n)
	for i := range tasks {
		tasks[i] = in.job.Tasks[i%len(in.job.Tasks)]
		tasks[i].ID = i
		tasks[i].Payload = nil
	}
	return &workload.Job{Name: in.job.Name, ImageBytes: in.job.ImageBytes, Tasks: tasks}
}

// tcpSetup starts a loopback coordinator, then closes it; it returns
// the host time of NewCoordinator and starting Serve.
func tcpSetup(sh tcpShape, in *inputs) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	coord, err := transport.NewCoordinator(transport.CoordinatorConfig{
		Listen: "127.0.0.1:0", Name: "e2ebench", Image: in.images[0], HeartbeatPeriod: sh.heartbeat,
	})
	if err != nil {
		return 0, err
	}
	served := make(chan struct{})
	go func() {
		coord.Serve()
		close(served)
	}()
	setup := time.Since(start)
	coord.Close()
	<-served
	return setup, nil
}

// tcpPass starts a loopback coordinator, dials agents agents and runs
// the job to the last commit.
func tcpPass(sh tcpShape, agents int, in *inputs, job *workload.Job, seed int64, mode passMode) (*pass, error) {
	runtime.GC()
	p := &pass{tasks: len(job.Tasks)}
	cfg := transport.CoordinatorConfig{
		Listen: "127.0.0.1:0", Name: "e2ebench", Image: in.images[0], HeartbeatPeriod: sh.heartbeat,
	}
	if mode != passPlain {
		p.spans = span.NewCollector(span.Config{Seed: seed})
		cfg.Spans = p.spans
	}
	if mode == passTraced {
		p.reg = obs.NewRegistry()
		cfg.Obs = p.reg
	}

	start := time.Now()
	coord, err := transport.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		coord.Serve()
		close(served)
	}()
	p.setup = time.Since(start)
	defer func() {
		coord.Close()
		<-served
	}()

	type commitAt struct {
		at    time.Time
		alloc uint64
		gcCPU float64
	}
	done := make(chan commitAt, 1)
	alloc0, gc0 := runtimeNow()
	wake := time.Now()
	h, err := coord.Submit(job)
	if err != nil {
		return nil, err
	}
	h.OnComplete(func(time.Time) {
		at := time.Now()
		a, g := runtimeNow()
		done <- commitAt{at: at, alloc: a, gcCPU: g}
	})
	reps := make([]transport.NodeReport, agents)
	errs := make([]error, agents)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = transport.RunNode(transport.NodeConfig{
				Addr: coord.Addr(), NodeID: uint64(i + 1), TimeScale: sh.timeScale,
				Seed: seed, Spans: p.spans,
			})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var c commitAt
	select {
	case c = <-done:
	default:
		return nil, errors.New("agents went home before the job completed")
	}
	p.window = c.at.Sub(wake)
	p.alloc = c.alloc - alloc0
	p.gcCPU = c.gcCPU - gc0
	p.makespan, _ = h.Makespan()
	p.redisp = h.Redispatches()
	be := coord.Backend()
	p.assigned = be.Assigned
	p.failed, p.err = checkCommits(commitView{
		tasks: job.Tasks, results: h.Results(), completed: be.Completed, unresolved: be.Unresolved,
	})
	if err := checkNodeReports(reps, len(job.Tasks)); err != nil && p.err == nil {
		p.err, p.failed = err, len(job.Tasks)
	}
	if mode != passPlain {
		for _, d := range p.spans.Snapshot() {
			if d.Name == "join" {
				p.joins = append(p.joins, d.End.Sub(d.Start))
			}
		}
	}
	for _, r := range reps {
		if r.Joined {
			p.joined++
		}
	}
	return p, nil
}

// runTCP runs the loopback workload: short reference passes for the
// agents' join latencies (warming up too), then measured passes until
// the budget is spent.
func runTCP(sh tcpShape, o runOpts) (*Result, error) {
	in, err := makeInputs("e2e-tcp", sh.imageBytes, min(sh.tasks, 4096), sh.taskSeconds, 0, o.seed)
	if err != nil {
		return nil, err
	}
	job := tcpJob(in, sh.tasks)
	refs, joins, err := tcpReference(sh, in, o.seed)
	if err != nil {
		return nil, err
	}
	plain, traced, err := measurePasses(o, func(mode passMode) (*pass, error) {
		return tcpPass(sh, sh.nodes, in, job, o.seed, mode)
	})
	if err != nil {
		return nil, err
	}
	all := append(append(refs, plain...), traced...)
	res := tally(all)
	// The wall-clock makespan varies run to run; what must repeat is
	// that no lease ever expires on loopback.
	for _, p := range all {
		if p.redisp != 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "e2ebench: %d lease re-dispatches on loopback\n", p.redisp)
		}
	}
	var vals map[string]float64
	if o.traced {
		vals, err = tcpBreakdown(sh, in, job, o, plain, traced, all, joins)
	} else {
		setups, err := sampleSetups(func() (time.Duration, error) { return tcpSetup(sh, in) })
		if err != nil {
			return nil, err
		}
		vals = endToEndValues(plain, setups)
	}
	if err != nil {
		return nil, err
	}
	if res.Metrics, err = metricSet(pickDefs(o.traced), vals); err != nil {
		return nil, err
	}
	return res, nil
}

// tcpReference stages the image to one agent at a time in refPasses
// short traced passes and returns the join spans' durations, less the
// warm-up passes. The collector is paused during each pass and run
// between them: in a deployment every agent is its own process, so a
// join should not pay for garbage the coordinator or an earlier pass
// left in this shared heap.
func tcpReference(sh tcpShape, in *inputs, seed int64) (refs []*pass, joins []time.Duration, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < sh.refPasses; i++ {
		p, err := tcpPass(sh, 1, in, tcpJob(in, sh.refTasks), seed, passReference)
		if err != nil {
			return nil, nil, passErr("reference", i, err)
		}
		if len(p.joins) != 1 && p.err == nil {
			p.err = fmt.Errorf("collected %d join spans from one agent", len(p.joins))
		}
		if i >= sh.warmPasses {
			joins = append(joins, p.joins...)
		}
		refs = append(refs, p)
	}
	return refs, joins, nil
}

// tcpBreakdown measures the layers on the TCP workload's inputs and
// reads its counts from the last traced pass.
func tcpBreakdown(sh tcpShape, in *inputs, job *workload.Job, o runOpts, plain, traced, all []*pass, joins []time.Duration) (map[string]float64, error) {
	t := newBenchTimer(o.name)
	lt, err := measureLayers(t, layerInputs{
		seed: o.seed, nodes: sh.nodes, replication: 1, target: sh.nodes,
		heartbeat: sh.heartbeat, job: job, image: in.images[0],
		next: recomposed(in.images[0], 1, 64<<10, o.seed)[0], timeScale: sh.timeScale,
	}, o.dir)
	if err != nil {
		return nil, err
	}
	tr := traced[len(traced)-1]
	reg := tr.reg
	joined := float64(tr.joined)
	commits := counter(reg, "oddci_backend_tasks_completed_total")
	frames := 0.0
	for _, name := range []string{
		"oddci_transport_frames_in_heartbeat_total", "oddci_transport_frames_in_task_request_total",
		"oddci_transport_frames_in_task_result_total", "oddci_transport_frames_in_other_total",
		"oddci_transport_frames_out_total",
	} {
		frames += counter(reg, name)
	}
	c := layerCounts{
		verifies:   joined,
		opens:      joined,
		heartbeats: counter(reg, "oddci_coordinator_heartbeats_total"),
		dispatches: counter(reg, "oddci_backend_tasks_dispatched_total") / float64(sh.nodes),
		commits:    commits / float64(sh.nodes),
		handoffs:   commits / float64(sh.nodes),
		stagings:   1,
	}
	extra := map[string]float64{
		"dsmcc.delta_air_bytes":  0,
		"dsmcc.cache_deliveries": 0,
		"dsmcc.cache_hit_ratio":  0,
		"pna.joins":              joined,
		"pna.wakeups_dropped":    0,
		"pna.join_ratio":         ratio(joined, float64(sh.nodes)),
		// The coordinator airs one wakeup and encodes its image once
		// per deployment; it keeps no counter of either.
		"controller.wakeups":       1,
		"controller.image_encodes": 1,
		"backend.lease_requeues":   counter(reg, "oddci_backend_lease_requeues_total"),
		"journal.bytes":            0,
		"transport.frames":         frames,
	}
	v, err := breakdown(o, t, lt, c, plain, traced, all, joins, extra)
	if err != nil {
		return nil, err
	}
	// Report whole-run counts; the shares above charge per session.
	v["backend.dispatches"] = counter(reg, "oddci_backend_tasks_dispatched_total")
	v["backend.commits"] = commits
	return v, nil
}
