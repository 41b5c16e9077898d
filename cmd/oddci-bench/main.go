// Command oddci-bench runs two kinds of sweep.
//
// The plot sweeps emit machine-readable CSV of the core models on
// stdout, for plotting:
//
//	oddci-bench -sweep fig6  > fig6.csv
//	oddci-bench -sweep fig7  > fig7.csv
//	oddci-bench -sweep table1 > table1.csv
//	oddci-bench -sweep churn  > churn.csv
//
// The gate sweeps check the paper's claims on the real components and
// enforce regression gates. Any comma-separated list of them runs in one
// process and writes one JSON report — {env, rows, gates} — to -out (or
// stdout); the command then exits non-zero naming every failed gate:
//
//	oddci-bench -sweep fleet,backend,transport,obs,adversary,image,federation -out BENCH.json
//
// The gate sweeps and what they check:
//
//   - fleet: the million-PNA harness (internal/fleet) through
//     wakeup→quorum at 10³…10⁶ PNAs; wall clock, peak RSS and event
//     counts per run, gated on fleet.Result.Validate at every size.
//     Peak RSS is the process's high-water mark, so fleet runs first.
//   - backend: the scheduler hot paths (dispatch, result commit, round
//     trips); a dispatch starved despite a backlog invalidates the run.
//   - transport: the TCP fast path over loopback; broadcast encodes flat
//     from 1 to 100 staging sessions, and the binary task plane cutting
//     allocs per hand-off at least 2× versus JSON.
//   - obs: the task hand-off with a sampled-off span collector versus
//     none (interleaved, min of 6): at most 2% slower, no extra allocs.
//   - adversary: byzantine deployments (fraction × replication × seed):
//     zero wrong commits at Replication 5, ≥95% of byzantine nodes
//     quarantined in every cell, armed dispatch ≥97% of baseline.
//   - image: delta re-air of 1, 4 and 16 of 16 modules at ≤1.25× the
//     changed bytes, warm and legacy receivers converging, and transport
//     staging encodes flat from 1 to 16 sessions.
//   - federation: convergence at 1→16 shards within 1.15× one shard,
//     journal failover with zero duplicate wakeups, the sharded SoA fleet
//     at 10⁶ PNAs, and a shared chunk cache hitting ≥70%.
package main

import (
	"encoding/csv"
	"flag"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"oddci/internal/analytic"
	"oddci/internal/baseline"
	"oddci/internal/sim"
)

// plotSweeps write CSV on stdout and carry no gate.
var plotSweeps = map[string]func(w *csv.Writer, seed int64, nodes int) error{
	"fig6":   func(w *csv.Writer, seed int64, nodes int) error { return sweepFig(w, "fig6", seed, nodes) },
	"fig7":   func(w *csv.Writer, seed int64, nodes int) error { return sweepFig(w, "fig7", seed, nodes) },
	"table1": func(w *csv.Writer, _ int64, _ int) error { return sweepTable1(w) },
	"churn":  sweepChurn,
}

func main() {
	var (
		sweep = flag.String("sweep", "fig6", "one plot sweep (fig6, fig7, table1, churn), or a comma-separated list of gate sweeps (fleet, backend, transport, obs, adversary, image, federation)")
		seed  = flag.Int64("seed", 2009, "random seed")
		nodes = flag.Int("nodes", 200, "DES population for validated sweeps")
		out   = flag.String("out", "", "output file for the gate sweeps' JSON report (default stdout)")
	)
	flag.Parse()

	var err error
	if plot, ok := plotSweeps[*sweep]; ok {
		w := csv.NewWriter(os.Stdout)
		if err = plot(w, *seed, *nodes); err == nil {
			w.Flush()
			err = w.Error()
		}
	} else {
		err = runGates(strings.Split(*sweep, ","), *seed, *out)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

func sweepFig(w *csv.Writer, which string, seed int64, nodes int) error {
	if err := w.Write([]string{"ratio", "phi", "analytic", "des"}); err != nil {
		return err
	}
	for _, ratio := range []float64{1, 10, 100, 1000} {
		for e := 0.0; e <= 5.0; e += 0.5 {
			phi := math.Pow(10, e)
			p := analytic.Figure6Defaults(ratio, float64(nodes)).WithPhi(phi)
			res, err := sim.RunJob(sim.JobConfig{
				Nodes:        nodes,
				Tasks:        int(ratio) * nodes,
				ImageBytes:   int64(p.ImageBits / 8),
				Beta:         p.Beta,
				Delta:        p.Delta,
				TaskInBytes:  int(p.TaskInBits / 8),
				TaskOutBytes: int(p.TaskOutBits / 8),
				TaskSeconds:  p.TaskSeconds,
				Seed:         seed,
			})
			if err != nil {
				return err
			}
			var ana, des float64
			if which == "fig6" {
				ana, des = p.Efficiency(), res.Efficiency
			} else {
				ana, des = p.Makespan(), res.Makespan.Seconds()
			}
			if err := w.Write([]string{f(ratio), f(phi), f(ana), f(des)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func sweepTable1(w *csv.Writer) error {
	if err := w.Write([]string{"n", "oddci", "grid", "iaas", "multicast"}); err != nil {
		return err
	}
	const img = 8 << 20
	oddci := baseline.OddCI{ImageBytes: img, BetaBps: 1e6}
	grid := baseline.Unicast{ImageBytes: img, UplinkBps: 1e9, DeltaBps: 10e6}
	iaas := baseline.IaaS{ImageBytes: img, DeltaBps: 1e9, Boot: 2 * time.Minute, Concurrency: 100}
	tree := baseline.MulticastTree{ImageBytes: img, DeltaBps: 10e6, Fanout: 8}
	for n := 10; n <= 10_000_000; n *= 10 {
		ro, err := oddci.Analytic(n)
		if err != nil {
			return err
		}
		rg, err := grid.Analytic(n)
		if err != nil {
			return err
		}
		ri, err := iaas.Analytic(n)
		if err != nil {
			return err
		}
		rm, err := tree.Analytic(n)
		if err != nil {
			return err
		}
		row := []string{strconv.Itoa(n), f(ro.Last.Seconds()), f(rg.Last.Seconds()),
			f(ri.Last.Seconds()), f(rm.Last.Seconds())}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

func sweepChurn(w *csv.Writer, seed int64, nodes int) error {
	if err := w.Write([]string{"mean_on_min", "phi", "efficiency", "tasks_lost", "departures"}); err != nil {
		return err
	}
	for _, onMin := range []int{10, 20, 30, 60, 120, 240} {
		for _, phi := range []float64{100, 1000, 10000} {
			p := analytic.Figure6Defaults(20, float64(nodes)).WithPhi(phi)
			res, err := sim.RunChurnJob(sim.ChurnJobConfig{
				JobConfig: sim.JobConfig{
					Nodes:        nodes,
					Tasks:        20 * nodes,
					ImageBytes:   int64(p.ImageBits / 8),
					Beta:         p.Beta,
					Delta:        p.Delta,
					TaskInBytes:  int(p.TaskInBits / 8),
					TaskOutBytes: int(p.TaskOutBits / 8),
					TaskSeconds:  p.TaskSeconds,
					Seed:         seed,
				},
				MeanOn:  time.Duration(onMin) * time.Minute,
				MeanOff: 5 * time.Minute,
			})
			if err != nil {
				return err
			}
			row := []string{strconv.Itoa(onMin), f(phi), f(res.Efficiency),
				strconv.Itoa(res.TasksLost), strconv.Itoa(res.Departures)}
			if err := w.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}
