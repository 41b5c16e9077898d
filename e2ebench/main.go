// Command e2ebench measures the assembled OddCI stack from the wakeup
// broadcast to the last task commit.
//
// It drives the real components from outside: internal/system over a
// simtime.Sim owned by the benchmark for the netsim/DTV workloads, and a
// transport.Coordinator with transport.RunNode agents over 127.0.0.1 for
// the TCP workload. Each run checks every task's commit against an
// output oracle and prints one JSON result object as its last line.
//
//	e2ebench --workload stage_fanout --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing and telemetry off. With --trace 1 it carries the
// per-layer breakdown: the same workload and seed rerun with the obs
// registry and span collector on, a CPU profile, and timed calls into
// each layer's public functions on the workload's own inputs. Traced
// runs leave their artifacts (benchmark-side spans as JSONL, the CPU
// profile, the result) under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, in print order, with
// their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wakeup_to_commit_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"dispatches_per_task", "ratio"},
	{"sim_makespan_s", "s"},
}

// perLayer lists the metrics of a traced run. Counts come from the
// program's obs counters (or the benchmark's Sim), *_ns from timed calls
// into the layer on the workload's inputs, share.* are count × ns over
// the untraced wakeup_to_commit_s.
var perLayer = []metricDef{
	{"sim_join_p50_s", "s"},
	{"sim_join_p99_s", "s"},
	{"simtime.events", "count"},
	{"simtime.handoff_ns", "ns"},
	{"netsim.sends", "count"},
	{"netsim.send_ns", "ns"},
	{"dsmcc.deliveries", "count"},
	{"dsmcc.deliver_ns", "ns"},
	{"dsmcc.deliver_bytes", "B"},
	{"dsmcc.encode_cycle_ns", "ns"},
	{"dsmcc.encode_delta_ns", "ns"},
	{"dsmcc.delta_air_bytes", "B"},
	{"dsmcc.cache_deliveries", "count"},
	{"dsmcc.cache_hit_ratio", "ratio"},
	{"appimage.verifies", "count"},
	{"appimage.verify_ns", "ns"},
	{"control.opens", "count"},
	{"control.open_ns", "ns"},
	{"pna.joins", "count"},
	{"pna.wakeups_dropped", "count"},
	{"pna.join_ratio", "ratio"},
	{"controller.heartbeats", "count"},
	{"controller.heartbeat_ns", "ns"},
	{"controller.wakeups", "count"},
	{"controller.image_encodes", "count"},
	{"backend.dispatches", "count"},
	{"backend.commits", "count"},
	{"backend.dispatch_ns", "ns"},
	{"backend.commit_ns", "ns"},
	{"backend.lease_requeues", "count"},
	{"journal.appends", "count"},
	{"journal.bytes", "B"},
	{"journal.append_ns", "ns"},
	{"transport.handoff_ns", "ns"},
	{"transport.codec_ns", "ns"},
	{"transport.staging_ns", "ns"},
	{"transport.frames", "count"},
	{"span.record_ns", "ns"},
	{"span.off_ns", "ns"},
	{"trace_overhead_frac", "ratio"},
	{"runtime.gc_cpu_s", "s"},
	{"redispatch_frac", "ratio"},
	{"failed_frac", "ratio"},
	{"determinism.makespan_spread", "ratio"},
	{"share.simtime", "ratio"},
	{"share.netsim", "ratio"},
	{"share.dsmcc", "ratio"},
	{"share.appimage", "ratio"},
	{"share.control", "ratio"},
	{"share.controller", "ratio"},
	{"share.backend", "ratio"},
	{"share.journal", "ratio"},
	{"share.transport", "ratio"},
	{"share.gc", "ratio"},
	{"breakdown.base_s", "s"},
	{"breakdown.residual_frac", "ratio"},
}

type metricDef struct{ name, unit string }

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// heldOutSeed is reserved for confirming a claimed gain: tune on other
// seeds, then show the claim also holds here.
const heldOutSeed = 20091117

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, fmt.Sprintf("workload seed (held-out seed for gain claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
	out := fs.String("out", ".bench_results", "directory for result files and traced-run artifacts")
	short := fs.Bool("short", false, "smoke-sized inputs (tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "e2ebench: need --workload in {%s}, --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	opts := runOpts{
		name:   w.name,
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *traceFlag == 1,
		short:  *short,
		dir:    filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traceFlag)),
	}
	if err := os.RemoveAll(opts.dir); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	env := stampEnv(w.name, *seed, *traceFlag)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)

	res, err := w.run(opts)
	if err != nil {
		// A run that cannot complete its workload prints no result.
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if opts.traced {
		defs = perLayer
	}
	if err := checkMetrics(res.Metrics, defs); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := writeResultFile(opts.dir, env, res); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		fmt.Fprintf(stderr, "e2ebench: %s: oracle failed (%d of %d tasks)\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// checkMetrics verifies that m holds exactly the metrics of defs, each
// with its declared unit and a finite value.
func checkMetrics(m map[string]Metric, defs []metricDef) error {
	if len(m) != len(defs) {
		return fmt.Errorf("result has %d metrics, want %d", len(m), len(defs))
	}
	for _, d := range defs {
		got, ok := m[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s missing", d.name)
		case got.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, got.Unit, d.unit)
		case got.Value != got.Value || got.Value > 1e300 || got.Value < -1e300:
			return fmt.Errorf("metric %s is not finite", d.name)
		}
	}
	return nil
}

func writeResultFile(dir string, env map[string]any, res *Result) error {
	raw, err := json.MarshalIndent(map[string]any{"env": env, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(raw, '\n'), 0o644)
}

// metricSet builds a Result's metric map from values keyed by name,
// attaching the units of defs.
func metricSet(defs []metricDef, values map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = Metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, errors.New("unmeasured metrics: " + strings.Join(missing, ", "))
	}
	return out, nil
}
