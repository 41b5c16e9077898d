package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"oddci/internal/obs"
	"oddci/internal/span"
)

type passMode int

const (
	passPlain     passMode = iota // tracing and telemetry off: the measured pass
	passReference                 // timeline on, for join latencies
	passTraced                    // timeline, obs registry and span collector on
)

// pass is one deployment's run from assembly to the last commit.
type pass struct {
	setup    time.Duration // host: assemble and start
	window   time.Duration // host: submit + wakeup to last commit
	alloc    uint64        // heap bytes allocated in the window
	gcCPU    float64       // GC CPU seconds in the window
	makespan time.Duration // deployment clock
	redisp   int
	assigned int64
	tasks    int
	failed   int
	err      error // first oracle failure
	joins    []time.Duration
	fired    uint64 // Sim events fired in the window
	reg      *obs.Registry
	spans    *span.Collector
	powerOns int           // netsim: STB power-ons
	joined   int           // tcp: agents that staged the image
	cycle    time.Duration // carousel cycle with the image on air
}

// runtimeNow samples the counters a window is charged with.
func runtimeNow() (alloc uint64, gcCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[1].Value.Float64()
	}
	return alloc, gcCPU
}

// measurePasses runs passes until the budget is spent: untraced ones,
// and in a traced run untraced and traced ones in turn, the first traced
// pass under the CPU profiler. A short run stops after one of each.
func measurePasses(o runOpts, run func(passMode) (*pass, error)) (plain, traced []*pass, err error) {
	began := time.Now()
	for i := 0; ; i++ {
		if o.traced && i%2 == 1 {
			p, err := profiledIf(len(traced) == 0, filepath.Join(o.dir, "cpu.pprof"), func() (*pass, error) { return run(passTraced) })
			if err != nil {
				return nil, nil, passErr("traced", len(traced), err)
			}
			traced = append(traced, p)
		} else {
			p, err := run(passPlain)
			if err != nil {
				return nil, nil, passErr("plain", len(plain), err)
			}
			plain = append(plain, p)
		}
		if o.short && len(plain) >= 1 && (!o.traced || len(traced) >= 1) {
			return plain, traced, nil
		}
		if len(plain) >= 3 && (!o.traced || len(traced) >= 2) && time.Since(began) >= o.budget {
			return plain, traced, nil
		}
	}
}

// profiledIf runs fn, under the CPU profiler writing to path when on.
func profiledIf(on bool, path string, fn func() (*pass, error)) (*pass, error) {
	if !on {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p, err := fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return p, err
}

// tally folds every pass's oracle verdict into a Result.
func tally(all []*pass) *Result {
	res := &Result{Correct: true}
	for _, p := range all {
		res.Attempted += p.tasks
		res.Failed += p.failed
		if p.err != nil {
			if res.Correct {
				fmt.Fprintf(os.Stderr, "e2ebench: oracle: %v\n", p.err)
			}
			res.Correct = false
		}
	}
	return res
}

func pickDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// setupSamples is how many extra deployments a run assembles and starts
// for setup_s, beside the measured passes, so its median rests on
// enough samples.
const setupSamples = 10

// sampleSetups times setupSamples assemblies and starts.
func sampleSetups(setup func() (time.Duration, error)) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < setupSamples; i++ {
		d, err := setup()
		if err != nil {
			return nil, passErr("setup", i, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// endToEndValues reduces the measured passes to the end-to-end metrics:
// medians over the passes, and of setups for set-up time.
func endToEndValues(plain []*pass, setups []time.Duration) map[string]float64 {
	var window, alloc, ratio, makespan []float64
	setup := seconds(setups)
	for _, p := range plain {
		setup = append(setup, p.setup.Seconds())
		window = append(window, p.window.Seconds())
		alloc = append(alloc, float64(p.alloc)/(1<<20))
		ratio = append(ratio, float64(p.assigned)/float64(p.tasks))
		makespan = append(makespan, p.makespan.Seconds())
	}
	return map[string]float64{
		"setup_s":             median(setup),
		"wakeup_to_commit_s":  median(window),
		"alloc_mb":            median(alloc),
		"peak_rss_mb":         peakRSSMB(),
		"dispatches_per_task": median(ratio),
		"sim_makespan_s":      median(makespan),
	}
}

// passErr labels a failure with the pass that produced it.
func passErr(kind string, i int, err error) error {
	return fmt.Errorf("%s pass %d: %w", kind, i, err)
}
