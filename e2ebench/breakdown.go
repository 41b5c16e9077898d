package main

import (
	"path/filepath"
	"time"

	"oddci/internal/obs"
)

// layerCounts is the work each layer did in a traced pass.
type layerCounts struct {
	events, sends, deliveries, verifies, opens, heartbeats float64
	// imageDeliveries are the deliveries of an image file; the rest
	// are the small Xlet and control files.
	imageDeliveries              float64
	dispatches, commits, appends float64
	// handoffs are TCP task exchanges per session and stagings the
	// agents' image loads; sessions run in parallel, so both are
	// charged once per session, not once per node.
	handoffs, stagings float64
}

// counter reads an obs metric of a traced pass (0 when absent).
func counter(reg *obs.Registry, name string) float64 {
	v, _ := reg.Value(name)
	return v
}

// breakdown assembles the per-layer metrics of a traced run: layer
// costs, counts, their shares of the untraced wakeup_to_commit_s, and
// the share nothing accounts for.
func breakdown(o runOpts, t *benchTimer, lt layerTimes, c layerCounts, plain, traced, all []*pass, joins []time.Duration, extra map[string]float64) (map[string]float64, error) {
	if err := t.writeJSONL(filepath.Join(o.dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	var windows, tracedWindows, gc []float64
	for _, p := range plain {
		windows = append(windows, p.window.Seconds())
		gc = append(gc, p.gcCPU)
	}
	for _, p := range traced {
		tracedWindows = append(tracedWindows, p.window.Seconds())
	}
	base := median(windows)
	share := func(ns float64) float64 { return ns / 1e9 / base }
	// Delivery cost and size follow the run's mix of image and small
	// files; a run without a carousel reports the aired mix of one
	// image and the two small files.
	imageN, smallN := c.imageDeliveries, c.deliveries-c.imageDeliveries
	if c.deliveries == 0 {
		imageN, smallN = 1, 2
	}
	deliverNS := (imageN*lt.deliverImage + smallN*lt.deliverSmall) / (imageN + smallN)
	deliverBytes := (imageN*lt.imageBytes + smallN*lt.smallBytes) / (imageN + smallN)
	v := map[string]float64{
		"simtime.handoff_ns":      lt.handoff,
		"netsim.send_ns":          lt.send,
		"dsmcc.deliver_ns":        deliverNS,
		"dsmcc.deliver_bytes":     deliverBytes,
		"dsmcc.encode_cycle_ns":   lt.encodeCycle,
		"dsmcc.encode_delta_ns":   lt.encodeDelta,
		"appimage.verify_ns":      lt.verify,
		"control.open_ns":         lt.open,
		"controller.heartbeat_ns": lt.heartbeat,
		"backend.dispatch_ns":     lt.dispatch,
		"backend.commit_ns":       lt.commit,
		"journal.append_ns":       lt.journalAppend,
		"transport.handoff_ns":    lt.tcpHandoff,
		"transport.codec_ns":      lt.codec,
		"transport.staging_ns":    lt.staging,
		"span.record_ns":          lt.spanOn,
		"span.off_ns":             lt.spanOff,

		"simtime.events":        c.events,
		"netsim.sends":          c.sends,
		"dsmcc.deliveries":      c.deliveries,
		"appimage.verifies":     c.verifies,
		"control.opens":         c.opens,
		"controller.heartbeats": c.heartbeats,
		"backend.dispatches":    c.dispatches,
		"backend.commits":       c.commits,
		"journal.appends":       c.appends,

		"sim_join_p50_s":      quantile(seconds(joins), 0.5),
		"sim_join_p99_s":      quantile(seconds(joins), 0.99),
		"trace_overhead_frac": median(tracedWindows)/base - 1,
		"runtime.gc_cpu_s":    median(gc),
		"breakdown.base_s":    base,

		"share.simtime":    share(c.events * lt.handoff),
		"share.netsim":     share(c.sends * lt.send),
		"share.dsmcc":      share(c.deliveries * deliverNS),
		"share.appimage":   share(c.verifies * lt.verify),
		"share.control":    share(c.opens * lt.open),
		"share.controller": share(c.heartbeats * lt.heartbeat),
		"share.backend":    share(c.dispatches*lt.dispatch + c.commits*lt.commit),
		"share.journal":    share(c.appends * lt.journalAppend),
		// An agent's hand-off includes the backend's dispatch and
		// commit, which the backend share already counts.
		"share.transport": share(c.handoffs*max(0, lt.tcpHandoff-lt.dispatch-lt.commit) + c.stagings*lt.staging),
		"share.gc":        median(gc) / base,
	}
	// GC is reported beside the layers, not summed with them: a layer's
	// timed calls already pay for the collection their allocations
	// cause, and the collector's own workers run beside the simulation.
	sum := 0.0
	for _, k := range []string{"simtime", "netsim", "dsmcc", "appimage", "control", "controller", "backend", "journal", "transport"} {
		sum += v["share."+k]
	}
	v["breakdown.residual_frac"] = 1 - sum

	var attempted, failed float64
	for _, p := range all {
		attempted += float64(p.tasks)
		failed += float64(p.failed)
	}
	var spans []float64
	for _, p := range append(append([]*pass(nil), plain...), traced...) {
		spans = append(spans, p.makespan.Seconds())
	}
	last := traced[len(traced)-1]
	v["redispatch_frac"] = float64(last.redisp) / float64(last.tasks)
	v["failed_frac"] = failed / attempted
	if m := median(spans); m > 0 {
		lo, hi := spans[0], spans[0]
		for _, s := range spans {
			lo, hi = min(lo, s), max(hi, s)
		}
		v["determinism.makespan_spread"] = (hi - lo) / m
	}
	for k, x := range extra {
		v[k] = x
	}
	return v, nil
}

// netsimBreakdown measures the layers on a netsim workload's inputs and
// reads its counts from the last traced pass.
func netsimBreakdown(sh netsimShape, in *inputs, o runOpts, plain, traced, all []*pass) (map[string]float64, error) {
	next := in.images[0]
	if len(in.images) > 1 {
		next = in.images[1]
	} else {
		next = recomposed(in.images[0], 1, 64<<10, o.seed)[0]
	}
	t := newBenchTimer(o.name)
	lt, err := measureLayers(t, layerInputs{
		seed: o.seed, nodes: sh.nodes, replication: sh.replication, target: sh.target,
		heartbeat: sh.heartbeat, job: in.job, image: in.images[0], next: next, timeScale: 1e4,
	}, o.dir)
	if err != nil {
		return nil, err
	}
	tr := traced[len(traced)-1]
	reg := tr.reg
	deliveries := counter(reg, "oddci_dsmcc_file_deliveries_total")
	imageLoads := counter(reg, "oddci_pna_image_load_seconds")
	heartbeats := counter(reg, "oddci_controller_heartbeats_total")
	dispatches := counter(reg, "oddci_backend_tasks_dispatched_total")
	c := layerCounts{
		events: float64(tr.fired),
		// Each heartbeat is an uplink message and a reply; each
		// dispatch a request, an assignment and a result.
		sends:           2*heartbeats + 3*dispatches,
		deliveries:      deliveries,
		imageDeliveries: imageLoads,
		verifies:        imageLoads,
		// Every delivery is the Xlet at power-on, an image at a join,
		// or the control file, which the agent opens.
		opens:      max(0, deliveries-imageLoads-float64(tr.powerOns)),
		heartbeats: heartbeats,
		dispatches: dispatches,
		commits:    counter(reg, "oddci_backend_tasks_completed_total"),
		appends:    counter(reg, "oddci_journal_appends_total"),
	}
	joins := counter(reg, "oddci_pna_joins_total")
	dropped := counter(reg, "oddci_pna_wakeups_dropped_total")
	hits := counter(reg, "oddci_dsmcc_cache_hits_total")
	misses := counter(reg, "oddci_dsmcc_cache_misses_total")
	extra := map[string]float64{
		"dsmcc.delta_air_bytes":    counter(reg, "oddci_dsmcc_delta_air_bytes_total"),
		"dsmcc.cache_deliveries":   counter(reg, "oddci_dsmcc_cache_deliveries_total"),
		"dsmcc.cache_hit_ratio":    ratio(hits, hits+misses),
		"pna.joins":                joins,
		"pna.wakeups_dropped":      dropped,
		"pna.join_ratio":           ratio(joins, joins+dropped),
		"controller.wakeups":       counter(reg, "oddci_controller_wakeups_total"),
		"controller.image_encodes": counter(reg, "oddci_controller_image_encodes_total"),
		"backend.lease_requeues":   counter(reg, "oddci_backend_lease_requeues_total"),
		"journal.bytes":            counter(reg, "oddci_journal_bytes_total"),
		"transport.frames":         0,
	}
	return breakdown(o, t, lt, c, plain, traced, all, tr.joins, extra)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
