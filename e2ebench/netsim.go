package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/core/dve"
	"oddci/internal/dsmcc"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/system"
	"oddci/internal/trace"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func init() {
	// Workers compute a checkable result for every task payload.
	backend.RunConcrete = taskResult
}

// netsimPass assembles a system.System on a fresh Sim, wakes an instance
// for the workload's job at the seeded instant, and runs it to the last
// commit.
func netsimPass(sh netsimShape, in *inputs, seed int64, mode passMode, stateDir string) (*pass, error) {
	runtime.GC()
	clk := simtime.NewSim(epoch)
	cfg, err := systemConfig(sh, clk, seed, stateDir)
	if err != nil {
		return nil, err
	}
	p := &pass{tasks: len(in.job.Tasks)}
	var rec *trace.Recorder
	if mode != passPlain {
		rec = trace.NewRecorder(1 << 18)
		cfg.Trace = rec
	}
	if mode == passTraced {
		p.reg = obs.NewRegistry()
		cfg.Obs, cfg.Spans = p.reg, span.NewCollector(span.Config{Clock: clk, Seed: seed})
	}

	start := time.Now()
	sys, err := system.New(cfg)
	if err != nil {
		return nil, err
	}
	// The DVE start is the end of a join: image staged, verified and
	// running. Wrapping the stock worker records it without touching
	// the simulation.
	var mu sync.Mutex
	var dveStarts []trace.Event
	sys.Registry.Register(backend.WorkerEntryPoint, func(env *dve.Env) error {
		now := clk.Now()
		mu.Lock()
		dveStarts = append(dveStarts, trace.Event{At: now, Node: env.NodeID})
		mu.Unlock()
		return backend.Worker(env)
	})
	p.setup = time.Since(start)

	var (
		runErr         error
		handle         *backend.JobHandle
		status         controller.InstanceStatus
		wake, commit   time.Time
		alloc0, alloc1 uint64
		gc0, gc1       float64
		fired0, fired1 uint64
	)
	fail := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
	}
	clk.AfterFunc(0, func() {
		began := time.Now()
		defer func() { p.setup += time.Since(began) }()
		if err := startSystem(sys, sh); err != nil {
			fail(err)
		}
	})
	bc, _ := sys.Broadcaster.(*dsmcc.Broadcaster)
	clk.AfterFunc(in.wakeAt, func() {
		alloc0, gc0 = runtimeNow()
		fired0 = clk.Fired()
		wake = time.Now()
		h, err := sys.Backend.Submit(in.job)
		if err != nil {
			fail(err)
			sys.Shutdown()
			return
		}
		i, err := sys.Provider.Create(controller.InstanceSpec{
			Image: in.images[0], Target: sh.target,
			InitialProbability: sh.initialProb, HeartbeatPeriod: sh.heartbeat,
		})
		if err != nil {
			fail(err)
			sys.Shutdown()
			return
		}
		mu.Lock()
		handle = h
		mu.Unlock()
		h.OnComplete(func(time.Time) {
			commit = time.Now()
			fired1 = clk.Fired()
			alloc1, gc1 = runtimeNow()
			st, err := i.Status()
			if err != nil {
				fail(err)
			}
			if bc != nil {
				p.cycle = bc.CycleDuration()
			}
			mu.Lock()
			status = st
			mu.Unlock()
			sys.Shutdown()
		})
		for k, img := range in.images[1:] {
			img := img
			clk.AfterFunc(time.Duration(k+1)*sh.recomposeEvery, func() {
				if _, done := h.Done(); done {
					fail(errors.New("job finished before every recomposition aired"))
					return
				}
				if err := i.Recompose(img); err != nil {
					fail(fmt.Errorf("recompose: %w", err))
				}
			})
		}
	})
	clk.AfterFunc(in.wakeAt+sh.deadline, func() {
		mu.Lock()
		h := handle
		mu.Unlock()
		if h != nil {
			if _, done := h.Done(); done {
				return
			}
		}
		fail(fmt.Errorf("job not done %v after the wakeup", sh.deadline))
		sys.Shutdown()
	})
	clk.Wait()

	if runErr != nil {
		return nil, runErr
	}
	p.window = commit.Sub(wake)
	p.alloc = alloc1 - alloc0
	p.gcCPU = gc1 - gc0
	p.fired = fired1 - fired0
	ms, _ := handle.Makespan()
	p.makespan = ms
	p.redisp = handle.Redispatches()
	p.assigned = sys.Backend.Assigned
	p.failed, p.err = checkCommits(commitView{
		tasks: in.job.Tasks, results: handle.Results(),
		completed: sys.Backend.Completed, unresolved: sys.Backend.Unresolved,
	})
	if rec != nil {
		p.joins = joinLatencies(rec.Events(), dveStarts)
		p.powerOns = rec.Count(trace.KindPowerOn)
		if len(p.joins) == 0 && p.err == nil {
			p.err = errors.New("no node joined")
		}
	}
	if sh.checkBand && p.err == nil && rec != nil {
		p50 := time.Duration(quantile(seconds(p.joins), 0.5) * float64(time.Second))
		if err := checkJoinBand(p50, p.cycle); err != nil {
			p.err, p.failed = err, p.tasks
		}
	}
	if sh.durable && p.err == nil {
		raw, err := in.images[len(in.images)-1].Encode()
		if err == nil {
			err = checkJournal(stateDir, int(status.Wakeups), uint32(status.Wakeups), raw)
		}
		if err == nil && p.reg != nil {
			if v, _ := p.reg.Value("oddci_journal_appends_total"); int(v) != status.Wakeups {
				err = fmt.Errorf("journal counter says %v appends, controller sent %d wakeups", v, status.Wakeups)
			}
		}
		if err != nil {
			p.err, p.failed = err, p.tasks
		}
	}
	return p, nil
}

// systemConfig is the deployment a netsim workload runs: telemetry,
// tracing and the timeline off.
func systemConfig(sh netsimShape, clk *simtime.Sim, seed int64, stateDir string) (system.Config, error) {
	cfg := system.Config{
		Clock: clk, Nodes: sh.nodes, Seed: seed,
		HeartbeatPeriod: sh.heartbeat, MaintenancePeriod: sh.maintenance,
		Replication: sh.replication, ChunkCacheBytes: sh.chunkCache,
		Strategy: dsmcc.FileGranularity,
	}
	if sh.durable {
		if err := os.RemoveAll(stateDir); err != nil {
			return cfg, err
		}
		cfg.StateDir = stateDir
	}
	return cfg, nil
}

// startSystem boots the head-end, powers the nodes and starts their
// churn. Callers run it inside a Sim event: no other event fires until
// a callback returns, so every actor and timer the start creates is
// scheduled at a deterministic point of virtual time.
func startSystem(sys *system.System, sh netsimShape) error {
	if err := sys.Start(); err != nil {
		return err
	}
	if sh.churnOn > 0 {
		for _, box := range sys.STBs {
			if err := box.StartChurn(sh.churnOn, sh.churnOff); err != nil {
				return err
			}
		}
	}
	return nil
}

// netsimSetup assembles and starts a deployment, then shuts it down; it
// returns the host time of assembly and start.
func netsimSetup(sh netsimShape, seed int64, stateDir string) (time.Duration, error) {
	runtime.GC()
	clk := simtime.NewSim(epoch)
	cfg, err := systemConfig(sh, clk, seed, stateDir)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	sys, err := system.New(cfg)
	if err != nil {
		return 0, err
	}
	setup := time.Since(start)
	clk.AfterFunc(0, func() {
		began := time.Now()
		err = startSystem(sys, sh)
		setup += time.Since(began)
		sys.Shutdown()
	})
	clk.Wait()
	return setup, err
}

// joinLatencies pairs every DVE start with the moment its node could
// first hear the wakeup it answered: the latest recruiting wakeup
// broadcast, or the node's power-on if that came later (a box switched
// on after the broadcast reads the wakeup still on air). That interval
// is the per-join staging delay, the paper's W.
func joinLatencies(events []trace.Event, starts []trace.Event) []time.Duration {
	var wakes []time.Time
	powerOn := make(map[uint64][]time.Time)
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindWakeup:
			wakes = append(wakes, ev.At)
		case trace.KindPowerOn:
			powerOn[ev.Node] = append(powerOn[ev.Node], ev.At)
		}
	}
	latest := func(ts []time.Time, at time.Time) (time.Time, bool) {
		k := sort.Search(len(ts), func(i int) bool { return ts[i].After(at) })
		if k == 0 {
			return time.Time{}, false
		}
		return ts[k-1], true
	}
	sort.Slice(wakes, func(i, j int) bool { return wakes[i].Before(wakes[j]) })
	var out []time.Duration
	for _, s := range starts {
		from, ok := latest(wakes, s.At)
		if !ok {
			continue
		}
		if on, ok := latest(powerOn[s.Node], s.At); ok && on.After(from) {
			from = on
		}
		out = append(out, s.At.Sub(from))
	}
	return out
}

// runNetsim runs a netsim workload: a reference pass (warm-up, and the
// join latencies from its timeline), then measured passes until the
// budget is spent.
func runNetsim(sh netsimShape, o runOpts) (*Result, error) {
	in, err := makeInputs("e2e", sh.imageBytes, sh.tasks, sh.taskSeconds, sh.jitterCV, o.seed)
	if err != nil {
		return nil, err
	}
	in.wakeAt = sh.wakeupAt + time.Duration(rand.New(rand.NewSource(o.seed^0x3A11)).Float64()*float64(time.Second))
	if sh.recomposes > 0 {
		in.images = append(in.images, recomposed(in.images[0], sh.recomposes, sh.recomposeBytes, o.seed)...)
	}
	stateDir := filepath.Join(o.dir, "state")
	run := func(mode passMode) (*pass, error) { return netsimPass(sh, in, o.seed, mode, stateDir) }

	ref, err := run(passReference)
	if err != nil {
		return nil, passErr("reference", 0, err)
	}
	plain, traced, err := measurePasses(o, run)
	if err != nil {
		return nil, err
	}
	all := append(append([]*pass{ref}, plain...), traced...)
	res := tally(all)
	// Determinism: tracing and the timeline must not perturb the
	// simulation, so every pass of one seed must agree on the virtual
	// outcome. A workload with a known nondeterminism defect reports the
	// disagreement without failing the run.
	for _, p := range all[1:] {
		if p.makespan == ref.makespan && p.redisp == ref.redisp {
			continue
		}
		fmt.Fprintf(os.Stderr, "e2ebench: determinism: a pass had makespan %v and %d re-dispatches, the reference %v and %d\n",
			p.makespan, p.redisp, ref.makespan, ref.redisp)
		if sh.knownNondeterminism == "" {
			res.Correct = false
		} else {
			fmt.Fprintf(os.Stderr, "e2ebench: determinism: known defect, not failing the run: %s\n", sh.knownNondeterminism)
		}
		break
	}
	var vals map[string]float64
	if o.traced {
		vals, err = netsimBreakdown(sh, in, o, plain, traced, all)
	} else {
		setups, err := sampleSetups(func() (time.Duration, error) { return netsimSetup(sh, o.seed, stateDir) })
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
