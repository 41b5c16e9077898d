package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"oddci/internal/dsmcc"
	"oddci/internal/federation"
	"oddci/internal/fleet"
	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// Federation sweep gate bounds.
const (
	fedMaxConvRatio = 1.15 // convergence latency vs the 1-shard baseline
	fedMinHitRate   = 0.70 // shared-cache hit rate at 4 shards
)

// sweepFederation gates the sharded control plane. Convergence scaling
// runs the same per-shard population and target at growing shard
// counts, which must converge in (nearly) the same simulated time —
// sharding the control plane buys capacity, not latency.
func sweepFederation(r *recorder, seed int64) error {
	// Convergence scaling: fixed per-shard population and target, shard
	// count 1 → 16. C = 10 s, so W ~ U(10 s, 20 s) and the analytic
	// quorum sits well inside the window.
	const (
		perShardPop    = 1024
		perShardTarget = 128
	)
	baseline := 0.0
	for _, shards := range []int{1, 2, 4, 8, 16} {
		dir, err := os.MkdirTemp("", "oddci-fed-bench")
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := federation.RunDriver(federation.DriverConfig{
			Shards:      shards,
			PerShardPop: perShardPop,
			TotalTarget: perShardTarget * shards,
			ImageBytes:  1_250_000, // C = 10 s at 1 Mbps
			Beta:        1e6,
			Seed:        seed,
			BaseDir:     dir,
			KillShard:   -1,
		})
		wall := time.Since(start).Seconds()
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("federation convergence at %d shards: %w", shards, err)
		}
		if shards == 1 {
			baseline = res.ConvergeSeconds
		}
		ratio := res.ConvergeSeconds / baseline
		r.row(fmt.Sprintf("convergence_shards%d", shards), map[string]float64{
			"shards":            float64(shards),
			"population":        float64(perShardPop * shards),
			"target":            float64(perShardTarget * shards),
			"converge_seconds":  res.ConvergeSeconds,
			"ratio_to_baseline": ratio,
			"wakeups":           float64(res.Wakeups),
			"duplicate_wakeups": float64(res.DuplicateWakeup),
			"wall_seconds":      wall,
		})
		r.check(fmt.Sprintf("converged shards=%d", shards), res.Converged,
			"federation gate: %d shards never converged", shards)
		r.check(fmt.Sprintf("zero duplicate wakeups shards=%d", shards), res.DuplicateWakeup == 0,
			"federation gate: %d duplicate wakeups at %d shards", res.DuplicateWakeup, shards)
		r.check(fmt.Sprintf("convergence ratio shards=%d", shards), ratio <= fedMaxConvRatio,
			"federation gate: convergence at %d shards is %.2f× the 1-shard baseline (max %.2f)",
			shards, ratio, fedMaxConvRatio)
	}

	// Journal failover: kill a shard at half fill, rebuild from its
	// journal 30 s later. Zero duplicate wakeups is the headline gate —
	// recovery re-adopts by heartbeat, never re-airs — and surviving
	// busy members must be re-adopted by heartbeat.
	dir, err := os.MkdirTemp("", "oddci-fed-bench")
	if err != nil {
		return err
	}
	start := time.Now()
	fres, err := federation.RunDriver(federation.DriverConfig{
		Shards:      4,
		PerShardPop: perShardPop,
		TotalTarget: perShardTarget * 4,
		ImageBytes:  1_250_000,
		Beta:        1e6,
		Seed:        seed + 1,
		BaseDir:     dir,
		KillShard:   1, KillAtFrac: 0.5, RecoverAfter: 30 * time.Second,
	})
	fwall := time.Since(start).Seconds()
	os.RemoveAll(dir)
	if err != nil {
		return fmt.Errorf("federation failover: %w", err)
	}
	r.row("failover", map[string]float64{
		"shards":            4,
		"converged":         b01(fres.Converged),
		"converge_seconds":  fres.ConvergeSeconds,
		"failed_over":       b01(fres.FailedOver),
		"readopted_busy":    float64(fres.ReadoptedBusy),
		"duplicate_wakeups": float64(fres.DuplicateWakeup),
		"wall_seconds":      fwall,
	})
	r.check("failover converged", fres.Converged && fres.FailedOver,
		"federation gate: failover run converged=%v failedOver=%v", fres.Converged, fres.FailedOver)
	r.check("zero duplicate wakeups across failover", fres.DuplicateWakeup == 0,
		"federation gate: %d duplicate wakeups across failover", fres.DuplicateWakeup)
	r.check("failover re-adopts busy members", fres.ReadoptedBusy > 0,
		"federation gate: failover re-adopted no busy members")

	// Population scale: the SoA fleet engine with the consistent-hash
	// shard overlay, 16 shards over 10⁶ PNAs, one shard killed mid-ramp
	// and recovered by journal failover.
	start = time.Now()
	sres, err := fleet.RunSharded(fleet.ShardedConfig{
		Config:    fleet.Config{Nodes: 1_000_000, Seed: seed},
		Shards:    16,
		KillShard: 5, KillAfter: 90 * time.Second, RecoverAfter: 60 * time.Second,
	})
	swall := time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("sharded fleet: %w", err)
	}
	verr := sres.Validate()
	r.row("fleet", map[string]float64{
		"nodes":              1_000_000,
		"shards":             16,
		"max_ownership_skew": sres.MaxOwnershipSkew,
		"wakeup_broadcasts":  float64(sres.WakeupBroadcasts),
		"readopted":          float64(sres.Readopted),
		"peak_down_lag":      float64(sres.PeakDownLag),
		"lost_nodes":         float64(sres.LostNodes),
		"validated":          b01(verr == nil),
		"wall_seconds":       swall,
	})
	if verr != nil {
		verr = fmt.Errorf("federation gate: sharded fleet: %v", verr)
	}
	r.gate("sharded fleet validates", verr)

	// Shared chunk cache: 4 shard carousels airing the identical image
	// into one store — shards 2..4 stage from cache, so the hit rate
	// tends to (k−1)/k.
	cache, err := fedSharedCacheScenario(seed)
	if err != nil {
		return err
	}
	r.row("shared_cache", cache)
	r.check("shared-cache hit rate", cache["hit_rate"] >= fedMinHitRate,
		"federation gate: shared-cache hit rate %.2f below %.2f", cache["hit_rate"], fedMinHitRate)
	return nil
}

// fedSharedCacheScenario airs one image from 4 shard carousels into a
// shared content-addressed store and reports the aggregate hit rate.
func fedSharedCacheScenario(seed int64) (map[string]float64, error) {
	const shards = 4
	clk := simtime.NewSim(time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC))
	img := make([]byte, 1<<20)
	rand.New(rand.NewSource(seed)).Read(img)

	met := dsmcc.NewCacheMetrics(obs.NewRegistry())
	shared := dsmcc.NewChunkCache(8 << 20)
	shared.Instrument(met)

	for s := 0; s < shards; s++ {
		car, err := dsmcc.NewCarousel(uint16(0x300+s), 0)
		if err != nil {
			return nil, err
		}
		b, err := dsmcc.NewBroadcaster(clk, car, 1e6)
		if err != nil {
			return nil, err
		}
		if err := b.Start([]dsmcc.File{{Name: "image", Data: img}}); err != nil {
			return nil, err
		}
		var fetchErr error
		b.RequestFileCached("image", shared, dsmcc.FileGranularity, func(data []byte, _ time.Time, err error) {
			if err != nil {
				fetchErr = err
			} else if !bytes.Equal(data, img) {
				fetchErr = fmt.Errorf("shard %d delivered corrupt image", s)
			}
		})
		clk.Wait()
		if fetchErr != nil {
			return nil, fetchErr
		}
	}
	hits, misses := met.Hits(), met.Misses()
	hitRate := 0.0
	if total := hits + misses; total > 0 {
		hitRate = float64(hits) / float64(total)
	}
	return map[string]float64{
		"shards":   shards,
		"hits":     float64(hits),
		"misses":   float64(misses),
		"hit_rate": hitRate,
	}, nil
}
