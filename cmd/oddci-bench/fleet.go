package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"oddci/internal/fleet"
)

// peakRSSBytes reads the process's resident high-water mark from
// /proc/self/status (VmHWM); off Linux it falls back to the Go
// runtime's view of memory obtained from the OS. Note the HWM is
// process-wide and monotone, so with ascending populations each row
// reports the peak up to and including its own run — the largest run
// dominates, which is the number the gate cares about — and in a run of
// several sweeps only those of the first sweep measure that sweep alone.
func peakRSSBytes() int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
						return kb << 10
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

func maxErrFrac(pts []fleet.Point) float64 {
	worst := 0.0
	for _, p := range pts {
		if p.Tol <= 0 {
			continue
		}
		d := (p.Sim - p.Model) / p.Tol
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// sweepFleet runs the million-PNA harness at ascending populations.
// The gate fails if any run's availability or ramp-up curve leaves its
// analytic bound, or the quorum time disagrees with the model's
// inversion (see fleet.Result.Validate for the exact tolerances).
func sweepFleet(r *recorder, seed int64) error {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		start := time.Now()
		res, err := fleet.Run(fleet.Config{Nodes: n, Seed: seed})
		if err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		verr := res.Validate()
		r.row(fmt.Sprintf("n%d", n), map[string]float64{
			"nodes":                     float64(n),
			"wall_seconds":              wall,
			"peak_rss_bytes":            float64(peakRSSBytes()),
			"sim_events":                float64(res.SimEvents),
			"wheel_batches":             float64(res.WheelBatches),
			"node_events":               float64(res.NodeEvents),
			"heartbeats":                float64(res.Heartbeats),
			"avail_at_wake":             float64(res.AvailAtWake),
			"quorum_sim_seconds":        res.QuorumSimSeconds,
			"quorum_model_seconds":      res.QuorumModelSeconds,
			"max_avail_err_frac_of_tol": maxErrFrac(res.Avail),
			"max_ramp_err_frac_of_tol":  maxErrFrac(res.Ramp),
			"validated":                 b01(verr == nil),
		})
		if verr != nil {
			verr = fmt.Errorf("fleet gate at n=%d: %w", n, verr)
		}
		r.gate(fmt.Sprintf("validate n=%d", n), verr)
	}
	return nil
}
