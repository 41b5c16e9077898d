package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"oddci/internal/experiments"
)

// abOpsPerSec interleaves baseline and armed runs (GC between each) and
// keeps the best of three per side: back-to-back pairs see the same
// heap, where sequential blocks would bias whichever side ran last.
func abOpsPerSec(baseline, armed func(*atomic.Bool) func(b *testing.B)) (baseBest, armedBest float64, err error) {
	for i := 0; i < 3; i++ {
		runtime.GC()
		base, err := measure(baseline)
		if err != nil {
			return 0, 0, fmt.Errorf("baseline: %w", err)
		}
		runtime.GC()
		arm, err := measure(armed)
		if err != nil {
			return 0, 0, fmt.Errorf("armed: %w", err)
		}
		baseBest = math.Max(baseBest, base["ops_per_sec"])
		armedBest = math.Max(armedBest, arm["ops_per_sec"])
	}
	return baseBest, armedBest, nil
}

// sweepAdversary runs the byzantine scenario grid (fraction ×
// replication × seed), measures the honest-path dispatch overhead of
// arming credibility tracking, and enforces three gates: zero wrong
// commits at Replication 5 for every f ≤ 0.3 and seed, at least 95% of
// byzantine nodes quarantined in every adversarial cell, and armed
// dispatch throughput within 3% of the plain baseline.
func sweepAdversary(r *recorder, seed int64) error {
	seeds := []int64{seed, 4181, 9973}
	for _, rep := range []int{3, 5} {
		for _, frac := range []float64{0, 0.1, 0.2, 0.3} {
			for _, sd := range seeds {
				out, err := experiments.RunByzantineScenario(experiments.ByzantineScenario{
					Fraction: frac, Replication: rep, Seed: sd,
				})
				if err != nil {
					return err
				}
				cell := fmt.Sprintf("R=%d f=%.2f seed=%d", rep, frac, sd)
				r.row(cell, map[string]float64{
					"fraction":              frac,
					"replication":           float64(rep),
					"seed":                  float64(sd),
					"byzantine_nodes":       float64(out.Byzantine),
					"byzantine_quarantined": float64(out.ByzQuarantined),
					"honest_quarantined":    float64(out.HonestQuarantined),
					"committed":             float64(out.Committed),
					"wrong_commits":         float64(out.WrongCommits),
					"unresolved":            float64(out.Unresolved),
					"conflicts":             float64(out.Conflicts),
					"lies":                  float64(out.Lies),
					"makespan_sec":          out.Makespan.Seconds(),
				})
				// Gate 1: at R=5 the quorum margin (3000 milli-credits vs
				// colluder groups capped at 2000) makes wrong commits
				// structurally impossible for these fractions.
				if rep == 5 {
					r.check("zero wrong commits "+cell, out.WrongCommits == 0,
						"adversary gate: %d wrong commits at R=5 f=%.2f seed=%d", out.WrongCommits, frac, sd)
				}
				// Gate 2: the credibility/credential machinery must catch
				// at least 95% of the byzantine population.
				if out.Byzantine > 0 {
					r.check("byzantine quarantined "+cell, float64(out.ByzQuarantined) >= 0.95*float64(out.Byzantine),
						"adversary gate: %d/%d byzantine nodes quarantined at R=%d f=%.2f seed=%d (<95%%)",
						out.ByzQuarantined, out.Byzantine, rep, frac, sd)
				}
			}
		}
	}

	// Gate 3: arming credibility tracking must not cost the honest
	// dispatch path more than 3% (A/B on the same binary, best of 3).
	base, armed, err := abOpsPerSec(benchDispatch(false), benchDispatch(true))
	if err != nil {
		return fmt.Errorf("adversary throughput bench: %w", err)
	}
	ratio := armed / base
	r.row("dispatch_throughput", map[string]float64{
		"baseline_ops_per_sec": base,
		"armed_ops_per_sec":    armed,
		"throughput_ratio":     ratio,
	})
	r.check("armed dispatch >= 97% of baseline", ratio >= 0.97,
		"adversary gate: armed dispatch at %.1f%% of baseline (floor 97%%)", ratio*100)
	return nil
}
