package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Row is one measured result of a gate sweep. Metric keys are stable
// across revisions so files stay comparable; booleans are 0 or 1.
type Row struct {
	Sweep   string             `json:"sweep"`
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// Gate is one pass/fail check of a gate sweep; Error says why it failed.
type Gate struct {
	Sweep string `json:"sweep"`
	Name  string `json:"name"`
	Pass  bool   `json:"pass"`
	Error string `json:"error,omitempty"`
}

// Env records what a report was measured on.
type Env struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
	GitRev     string `json:"git_rev"`
	GitDirty   bool   `json:"git_dirty"`
}

// Report is the document one run of the gate sweeps writes.
type Report struct {
	Env   Env    `json:"env"`
	Rows  []Row  `json:"rows"`
	Gates []Gate `json:"gates"`
}

// recorder collects the rows and gates of the sweep now running.
type recorder struct {
	sweep string
	rep   *Report
}

func (r *recorder) row(name string, metrics map[string]float64) {
	r.rep.Rows = append(r.rep.Rows, Row{Sweep: r.sweep, Name: name, Metrics: metrics})
}

// gate records a check that passes when err is nil.
func (r *recorder) gate(name string, err error) {
	g := Gate{Sweep: r.sweep, Name: name, Pass: err == nil}
	if err != nil {
		g.Error = err.Error()
	}
	r.rep.Gates = append(r.rep.Gates, g)
}

// check records a check that passes when ok, and otherwise fails with
// the formatted text.
func (r *recorder) check(name string, ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	r.gate(name, err)
}

// b01 encodes a boolean metric.
func b01(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// measure runs one testing.Benchmark. The harness flags a setup failure
// or a dispatch that came up empty despite a pending backlog through
// its argument; either invalidates the measurement, as does a run that
// recorded no iterations.
func measure(bench func(invalid *atomic.Bool) func(*testing.B)) (map[string]float64, error) {
	var invalid atomic.Bool
	r := testing.Benchmark(bench(&invalid))
	if invalid.Load() {
		return nil, errors.New("measurement invalidated (setup failure or starved dispatch)")
	}
	if r.N == 0 || r.T <= 0 {
		return nil, errors.New("no iterations recorded")
	}
	return map[string]float64{
		"iterations":    float64(r.N),
		"ns_per_op":     float64(r.T.Nanoseconds()) / float64(r.N),
		"ops_per_sec":   float64(r.N) / r.T.Seconds(),
		"allocs_per_op": float64(r.AllocsPerOp()),
		"bytes_per_op":  float64(r.AllocedBytesPerOp()),
	}, nil
}

// bench measures one benchmark and records its validity gate and, when
// the measurement is valid, its row.
func (r *recorder) bench(name string, fn func(invalid *atomic.Bool) func(*testing.B)) (map[string]float64, bool) {
	m, err := measure(fn)
	r.gate(name+" valid", err)
	if err != nil {
		return nil, false
	}
	r.row(name, m)
	return m, true
}

// gateSweeps are the sweeps that write rows and gates. Every one
// returns an error only when it cannot run; a measured violation is a
// failed gate.
var gateSweeps = map[string]func(r *recorder, seed int64) error{
	"fleet":      sweepFleet,
	"backend":    sweepBackend,
	"transport":  sweepTransport,
	"obs":        sweepObs,
	"adversary":  sweepAdversary,
	"image":      sweepImage,
	"federation": sweepFederation,
}

// runGates runs every named gate sweep in order, writes one report to
// out (stdout when empty), and then fails naming every failed gate. A
// sweep that cannot run is recorded as its failed "run" gate, and the
// sweeps after it still run.
func runGates(names []string, seed int64, out string) error {
	for _, name := range names {
		if gateSweeps[name] == nil {
			return fmt.Errorf("unknown gate sweep %q (a plot sweep runs alone)", name)
		}
	}
	rep := &Report{Env: stampEnv(seed), Rows: []Row{}, Gates: []Gate{}}
	for _, name := range names {
		start := time.Now()
		r := &recorder{sweep: name, rep: rep}
		if err := gateSweeps[name](r, seed); err != nil {
			r.gate("run", err)
		}
		fmt.Fprintf(os.Stderr, "oddci-bench: %s sweep took %.1f s\n", name, time.Since(start).Seconds())
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "" {
		_, err = os.Stdout.Write(blob)
	} else {
		err = os.WriteFile(out, blob, 0o644)
	}
	if err != nil {
		return err
	}

	var failed []string
	for _, g := range rep.Gates {
		if !g.Pass {
			failed = append(failed, fmt.Sprintf("%s/%s: %s", g.Sweep, g.Name, g.Error))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d gates failed:\n  %s", len(failed), len(rep.Gates), strings.Join(failed, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "oddci-bench: %d rows, all %d gates passed\n", len(rep.Rows), len(rep.Gates))
	return nil
}

// stampEnv records the toolchain, platform, parallelism, CPU, seed and
// the source revision the binary was built from ("unknown" when the
// build carries no version-control stamp).
func stampEnv(seed int64) Env {
	env := Env{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), Seed: seed, GitRev: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.GitRev = s.Value
			case "vcs.modified":
				env.GitDirty = s.Value == "true"
			}
		}
	}
	return env
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
