package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"oddci/internal/appimage"
	"oddci/internal/dsmcc"
	"oddci/internal/obs"
	"oddci/internal/transport"
	"oddci/internal/workload"
)

// The image sweep gates the content-addressed delta distribution path
// end to end:
//
//   - dsmcc: a 16-module × 64 KiB carousel re-airs 1/16, 1/4 and full
//     deltas; the delta wire cost must stay within 1.25× the changed
//     payload bytes (TS packetization plus the directory are the only
//     overhead), a cache-warm receiver must converge from the delta
//     alone, and a hash-unaware legacy receiver must still converge
//     from full cycles under injected section loss.
//   - transport: staging encodes must be flat in the session count, and
//     an UpdateImage must cost exactly the three per-update artifacts
//     plus the changed chunk frames — identically at 1 and 16 sessions.

const (
	imageBenchModules    = 16
	imageBenchModuleSize = 64 << 10
	imageMaxRatio        = 1.25 // delta re-air wire bytes per changed byte
)

func sweepImage(r *recorder, seed int64) error {
	for _, k := range []int{1, 4, 16} {
		m, err := imageDeltaCase(seed, k)
		if err != nil {
			return err
		}
		r.row(fmt.Sprintf("delta_k%d", k), m)
		r.check(fmt.Sprintf("delta ratio k=%d", k), m["ratio"] <= imageMaxRatio,
			"image gate: delta of %d modules costs %.0f wire bytes for %.0f changed bytes (ratio %.3f > %.2f)",
			k, m["delta_wire_bytes"], m["changed_bytes"], m["ratio"], imageMaxRatio)
		r.check(fmt.Sprintf("warm converged k=%d", k), m["warm_converged"] == 1,
			"image gate: warm receiver failed to converge from a %d-module delta", k)
		r.check(fmt.Sprintf("legacy converged k=%d", k), m["legacy_cycles_under_loss"] > 0,
			"image gate: legacy receiver never converged under loss (delta of %d modules)", k)
	}

	var first map[string]float64
	for _, sessions := range []int{1, 16} {
		m, err := imageStageCase(seed, sessions)
		if err != nil {
			return err
		}
		r.row(fmt.Sprintf("staging_n%d", sessions), m)
		if first == nil {
			first = m
			continue
		}
		r.check(fmt.Sprintf("staging encodes flat n=1 vs n=%d", sessions),
			m["join_encodes"] == first["join_encodes"] && m["update_encodes"] == first["update_encodes"],
			"image gate: staging encodes not flat in session count: %.0f sessions cost join=%.0f update=%.0f, %.0f sessions cost join=%.0f update=%.0f",
			first["sessions"], first["join_encodes"], first["update_encodes"],
			m["sessions"], m["join_encodes"], m["update_encodes"])
	}
	return nil
}

// imageDeltaCase measures one carousel delta re-air with k changed
// modules and proves both receiver generations assemble correctly.
func imageDeltaCase(seed int64, k int) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	c, err := dsmcc.NewCarousel(0x420, 0)
	if err != nil {
		return nil, err
	}
	files := make([]dsmcc.File, imageBenchModules)
	for i := range files {
		data := make([]byte, imageBenchModuleSize)
		rng.Read(data)
		files[i] = dsmcc.File{Name: fmt.Sprintf("m%02d", i), Data: data}
	}
	if err := c.SetFiles(files); err != nil {
		return nil, err
	}
	full, err := c.EncodeCycle()
	if err != nil {
		return nil, err
	}

	// Warm up a hash-aware receiver (and its chunk cache) on gen 1.
	cache := dsmcc.NewChunkCache(64 << 20)
	warm := dsmcc.NewReceiver()
	warm.SetCache(cache)
	for _, s := range full {
		warm.HandleSection(s)
	}
	for _, f := range files {
		if got, ok := warm.File(f.Name); !ok || len(got) != len(f.Data) {
			return nil, fmt.Errorf("warm receiver failed to assemble %s at gen 1", f.Name)
		}
	}

	// Mutate k modules and re-air only the delta.
	for i := 0; i < k; i++ {
		data := make([]byte, imageBenchModuleSize)
		rng.Read(data)
		files[i] = dsmcc.File{Name: files[i].Name, Data: data}
	}
	if err := c.SetFiles(files); err != nil {
		return nil, err
	}
	layout, err := c.Layout()
	if err != nil {
		return nil, err
	}
	changed := float64(k * imageBenchModuleSize)
	row := map[string]float64{
		"changed_modules":  float64(k),
		"changed_bytes":    changed,
		"delta_wire_bytes": float64(layout.DeltaWire),
		"full_wire_bytes":  float64(layout.CycleWire),
		"ratio":            float64(layout.DeltaWire) / changed,
		"savings":          1 - float64(layout.DeltaWire)/float64(layout.CycleWire),
	}

	delta, err := c.EncodeDeltaCycle()
	if err != nil {
		return nil, err
	}
	// The receiver that followed gen 1 converges from the delta alone;
	// so does a cold receiver sharing only the warm chunk cache.
	met := dsmcc.NewCacheMetrics(obs.NewRegistry())
	cache.Instrument(met)
	cold := dsmcc.NewReceiver()
	cold.SetCache(cache)
	for _, s := range delta {
		warm.HandleSection(s)
		cold.HandleSection(s)
	}
	warmConverged := true
	for _, f := range files {
		for _, r := range []*dsmcc.Receiver{warm, cold} {
			got, ok := r.File(f.Name)
			if !ok || !bytes.Equal(got, f.Data) {
				warmConverged = false
			}
		}
	}
	row["warm_converged"] = b01(warmConverged)
	row["cache_hits"] = float64(met.Hits())
	row["legacy_cycles_under_loss"] = 0

	// Mixed-version interop under fault injection: a hash-unaware
	// receiver ignores the delta plane and converges from lossy full
	// cycles instead.
	legacy := dsmcc.NewReceiver()
	legacy.DisableHashes = true
	for _, s := range delta {
		legacy.HandleSection(s) // cold: the delta alone cannot complete it
	}
	lossRng := rand.New(rand.NewSource(seed + 1))
	for cycle := 1; cycle <= 20; cycle++ {
		secs, err := c.EncodeCycle()
		if err != nil {
			return nil, err
		}
		for _, s := range secs {
			if lossRng.Float64() < 0.2 {
				continue // injected section loss
			}
			legacy.HandleSection(s)
		}
		done := true
		for _, f := range files {
			got, ok := legacy.File(f.Name)
			if !ok || !bytes.Equal(got, f.Data) {
				done = false
				break
			}
		}
		if done {
			row["legacy_cycles_under_loss"] = float64(cycle)
			break
		}
	}
	return row, nil
}

// imageStageCase serves n full node sessions from one coordinator, then
// updates one 64 KiB chunk of the staged image, and reports the encode
// cost of each phase. Both must be independent of n.
func imageStageCase(seed int64, n int) (map[string]float64, error) {
	payload := make([]byte, imageBenchModules*imageBenchModuleSize)
	rand.New(rand.NewSource(seed)).Read(payload)
	img := &appimage.Image{Name: "bench", Version: 1, EntryPoint: "w",
		Payload: append([]byte(nil), payload...)}
	coord, err := transport.NewCoordinator(transport.CoordinatorConfig{
		Listen:          "127.0.0.1:0",
		Name:            "image-bench",
		Image:           img,
		ImageChunkBytes: imageBenchModuleSize,
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	go coord.Serve()
	construction := coord.BroadcastEncodes()

	g := workload.Generator{Name: "image-bench", Tasks: 2 * n,
		InputBytes: 64, OutputBytes: 64, MeanSeconds: 0.5}
	job, err := g.Generate()
	if err != nil {
		return nil, err
	}
	if _, err := coord.Submit(job); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	restages := 0
	reports := make([]transport.NodeReport, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = transport.RunNode(transport.NodeConfig{
				Addr: coord.Addr(), NodeID: uint64(i + 1),
				TimeScale: 1000, Seed: seed, PinnedKey: coord.PublicKey(),
			})
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("node %d: %w", i+1, errs[i])
		}
		if !reports[i].Joined || !reports[i].DeltaImage {
			return nil, fmt.Errorf("node %d did not join over the delta plane: %+v", i+1, reports[i])
		}
		restages += reports[i].Restages
	}
	joinEncodes := coord.BroadcastEncodes() - construction // must be 0

	// One-chunk recompose: flip bytes inside a single 64 KiB chunk.
	img2 := &appimage.Image{Name: "bench", Version: 1, EntryPoint: "w",
		Payload: append([]byte(nil), payload...)}
	for i := 0; i < 128; i++ {
		img2.Payload[5*imageBenchModuleSize+i] ^= 0xFF
	}
	before := coord.BroadcastEncodes()
	if err := coord.UpdateImage(img2); err != nil {
		return nil, err
	}
	return map[string]float64{
		"sessions":       float64(n),
		"join_encodes":   float64(joinEncodes),
		"update_encodes": float64(coord.BroadcastEncodes() - before),
		"restages":       float64(restages),
	}, nil
}
