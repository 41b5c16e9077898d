package main

import (
	"math/rand"
	"sort"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/backend"
	"oddci/internal/workload"
)

// runOpts are one invocation's settings.
type runOpts struct {
	name   string
	seed   int64
	budget time.Duration // measurement budget
	traced bool
	short  bool   // smoke-sized inputs
	dir    string // artifact directory of this run
}

type workloadDef struct {
	name string
	why  string
	run  func(runOpts) (*Result, error)
}

// workloads are the benchmark's inputs. Each is chosen to stress a
// different layer; the "why" lines are repeated in BENCHMARK.json.
var workloads = []workloadDef{
	{
		name: "stage_fanout",
		why:  "1024 STBs stage a 1 MiB image for one short task each: carousel delivery and image verify dominate",
		run:  func(o runOpts) (*Result, error) { return runNetsim(stageFanout(o.short), o) },
	},
	{
		name: "task_flood",
		why:  "32 STBs, 4 KiB image, 1e5 one-second tasks: staging is trivial, the sim kernel, links and backend dominate",
		run:  func(o runOpts) (*Result, error) { return runNetsim(taskFlood(o.short), o) },
	},
	{
		name: "tcp_loopback",
		why:  "real coordinator and 2 node agents over 127.0.0.1 with binary task and delta image planes: framing, sessions, backend",
		run:  func(o runOpts) (*Result, error) { return runTCP(tcpLoopback(o.short), o) },
	},
	{
		name: "churn_recompose",
		why:  "256 churning STBs, R=3, journal, chunk cache, 4 image recompositions: re-air, re-wake, quorum and journal",
		run:  func(o runOpts) (*Result, error) { return runNetsim(churnRecompose(o.short), o) },
	},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// netsimShape sizes a netsim/DTV workload.
type netsimShape struct {
	nodes       int
	imageBytes  int
	tasks       int
	taskSeconds float64 // mean reference-STB seconds per task
	jitterCV    float64 // lognormal spread of task times
	replication int
	target      int
	initialProb float64
	heartbeat   time.Duration
	maintenance time.Duration
	// wakeupAt is when, after Start, the job is submitted and the
	// instance created; the seed adds up to one second to it, so the
	// wakeup falls at a seeded phase of the carousel cycle.
	wakeupAt time.Duration
	// Churn, durability and image updates (churn_recompose).
	churnOn, churnOff time.Duration
	durable           bool
	chunkCache        int64
	recomposes        int
	recomposeEvery    time.Duration
	recomposeBytes    int
	// checkBand asks the oracle to hold the join median to the
	// analytic wakeup band (stage_fanout).
	checkBand bool
	deadline  time.Duration // virtual time after which a pass fails
	// knownNondeterminism, if set, names a program defect that makes
	// passes of one seed disagree on the virtual outcome; the
	// determinism check then reports instead of failing the run.
	knownNondeterminism string
}

func stageFanout(short bool) netsimShape {
	s := netsimShape{
		nodes: 1024, imageBytes: 1 << 20, tasks: 1024, taskSeconds: 1, jitterCV: 0.2,
		replication: 1, target: 1024, initialProb: 1,
		heartbeat: time.Minute, maintenance: time.Minute, wakeupAt: 30 * time.Second,
		checkBand: true, deadline: 2 * time.Hour,
	}
	if short {
		s.nodes, s.tasks, s.target = 32, 32, 32
	}
	return s
}

func taskFlood(short bool) netsimShape {
	s := netsimShape{
		nodes: 32, imageBytes: 4 << 10, tasks: 100000, taskSeconds: 1, jitterCV: 0.3,
		replication: 1, target: 32, initialProb: 1,
		heartbeat: time.Minute, maintenance: time.Minute, wakeupAt: 30 * time.Second,
		deadline: 24 * time.Hour,
	}
	if short {
		s.tasks = 2000
	}
	return s
}

func churnRecompose(short bool) netsimShape {
	s := netsimShape{
		nodes: 256, imageBytes: 1 << 20, tasks: 6144, taskSeconds: 30, jitterCV: 0.2,
		replication: 3, target: 192, initialProb: 0.9,
		heartbeat: 30 * time.Second, maintenance: 30 * time.Second, wakeupAt: 30 * time.Second,
		churnOn: 25 * time.Minute, churnOff: 5 * time.Minute,
		durable: true, chunkCache: -1,
		recomposes: 4, recomposeEvery: 3 * time.Minute, recomposeBytes: 64 << 10,
		deadline: 12 * time.Hour,
		knownNondeterminism: "with probabilistic sizing (target below N), an instance woken while nodes " +
			"already heartbeat replays differently within one seed, at any replication; see e2ebench/LAYERS.md",
	}
	if short {
		s.nodes, s.target, s.tasks, s.recomposeEvery = 64, 48, 512, time.Minute
	}
	return s
}

// inputs are a pass's generated inputs: everything the seed decides.
type inputs struct {
	job    *workload.Job
	images []*appimage.Image // the created image, then each recomposition
	wakeAt time.Duration
}

// makeInputs derives a workload's job and images from the seed. Every
// task carries a seeded payload whose result the workers compute, so
// the oracle can check each commit.
func makeInputs(name string, imageBytes, tasks int, taskSeconds, jitterCV float64, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	gen := workload.Generator{
		Name: name, ImageBytes: imageBytes, Tasks: tasks,
		InputBytes: 512, OutputBytes: 256, MeanSeconds: taskSeconds,
		JitterCV: jitterCV, Rng: rng,
	}
	job, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	for i := range job.Tasks {
		p := make([]byte, 16)
		rng.Read(p)
		job.Tasks[i].Payload = p
	}
	payload := make([]byte, imageBytes)
	rng.Read(payload)
	img := &appimage.Image{Name: "worker", Version: 1, EntryPoint: backend.WorkerEntryPoint, Payload: payload}
	return &inputs{job: job, images: []*appimage.Image{img}}, nil
}

// recomposed returns n successors of img, each rewriting one seeded
// region of regionBytes in the previous version's payload.
func recomposed(img *appimage.Image, n, regionBytes int, seed int64) []*appimage.Image {
	rng := rand.New(rand.NewSource(seed ^ 0x7EC0))
	out := make([]*appimage.Image, 0, n)
	prev := img
	for k := 0; k < n; k++ {
		payload := append([]byte(nil), prev.Payload...)
		region := min(regionBytes, len(payload))
		off := 0
		if len(payload) > region {
			off = rng.Intn(len(payload)/region) * region
		}
		rng.Read(payload[off : off+region])
		next := &appimage.Image{Name: prev.Name, Version: prev.Version + 1, EntryPoint: prev.EntryPoint, Payload: payload}
		out = append(out, next)
		prev = next
	}
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
