package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oddci/internal/workload"
)

func oracleTasks() []workload.Task {
	return []workload.Task{
		{ID: 0, Payload: []byte("a")},
		{ID: 7, Payload: []byte("b")},
		{ID: 9}, // a timing task: commits an empty result
	}
}

func goodResults(tasks []workload.Task) map[int][]byte {
	out := make(map[int][]byte)
	for _, t := range tasks {
		out[t.ID] = expectedResult(t)
	}
	return out
}

func TestOracleAcceptsCompleteRun(t *testing.T) {
	tasks := oracleTasks()
	failed, err := checkCommits(commitView{tasks: tasks, results: goodResults(tasks), completed: 3})
	if failed != 0 || err != nil {
		t.Fatalf("failed=%d err=%v on a correct run", failed, err)
	}
}

func TestOracleRejectsMissingCommit(t *testing.T) {
	tasks := oracleTasks()
	res := goodResults(tasks)
	delete(res, 7)
	failed, err := checkCommits(commitView{tasks: tasks, results: res, completed: 2})
	if failed != 1 || err == nil || !strings.Contains(err.Error(), "never committed") {
		t.Fatalf("failed=%d err=%v, want one uncommitted task", failed, err)
	}
}

func TestOracleRejectsWrongResult(t *testing.T) {
	tasks := oracleTasks()
	res := goodResults(tasks)
	res[0] = taskResult([]byte("not a"))
	failed, err := checkCommits(commitView{tasks: tasks, results: res, completed: 3})
	if failed != 1 || err == nil || !strings.Contains(err.Error(), "committed") {
		t.Fatalf("failed=%d err=%v, want one wrong result", failed, err)
	}
}

func TestOracleRejectsDoubleCommitAndNoQuorum(t *testing.T) {
	tasks := oracleTasks()
	if failed, err := checkCommits(commitView{tasks: tasks, results: goodResults(tasks), completed: 4}); failed == 0 || err == nil {
		t.Fatalf("a fourth commit of three tasks passed: failed=%d err=%v", failed, err)
	}
	if failed, err := checkCommits(commitView{tasks: tasks, results: goodResults(tasks), completed: 3, unresolved: 1}); failed != 1 || err == nil {
		t.Fatalf("a commit without quorum passed: failed=%d err=%v", failed, err)
	}
}

func TestTaskResultDependsOnPayload(t *testing.T) {
	if bytes.Equal(taskResult([]byte{1}), taskResult([]byte{2})) {
		t.Fatal("distinct payloads share a result")
	}
}

func TestJoinBand(t *testing.T) {
	cycle := 10 * time.Second
	lo, hi := joinBand(cycle)
	for _, p50 := range []time.Duration{cycle, 2 * cycle, 15 * time.Second} {
		if err := checkJoinBand(p50, cycle); err != nil {
			t.Errorf("p50 %v: %v", p50, err)
		}
	}
	for _, p50 := range []time.Duration{lo - time.Millisecond, hi + time.Millisecond, time.Second} {
		if err := checkJoinBand(p50, cycle); err == nil {
			t.Errorf("p50 %v passed the band [%v, %v]", p50, lo, hi)
		}
	}
}

func TestJournalCheckRejectsMissingState(t *testing.T) {
	if err := checkJournal(t.TempDir(), 1, 1, []byte("image")); err == nil {
		t.Fatal("an empty state directory passed the journal check")
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, metricName)
		}
		if d.unit == "" {
			t.Errorf("metric %s has no unit", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), benchmark reports %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark reports %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), benchmark has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestSmoke runs every workload end to end on smoke-sized inputs, with
// and without tracing, and checks the result line.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			if trace == "1" && testing.Short() {
				continue
			}
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.01",
					"--trace", trace, "--short", "--out", out}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res Result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
					for _, f := range []string{"spans.jsonl", "cpu.pprof", "result.json"} {
						if _, err := os.Stat(filepath.Join(out, w.name+"-seed3-trace1", f)); err != nil {
							t.Errorf("traced run left no %s: %v", f, err)
						}
					}
				}
				if err := checkMetrics(res.Metrics, defs); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatal("a rejected run printed a result")
	}
}
