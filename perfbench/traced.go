package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// reconcileTolerance bounds the replay reconciliation: the layers, each
// timed through its exported functions, must account for the end-to-end
// ns/record of Ingest + RunRealTime to within this share. What they leave
// unexplained — output produces, consumer polls and commits, critical-point
// JSON, the pipeline's own metrics — is core.merge_residual_ns.
const reconcileTolerance = 0.5

// tracedRun is the per-layer run. It rotates untraced, uninstrumented
// (WithObs(nil)) and traced iterations, then replays the log through each
// layer's exported functions, and reports per-layer costs.
func (b *bench) tracedRun(measure time.Duration) (*report, int, int, error) {
	tr := newTracer()
	cost := clockCost()
	its, att, failed, err := b.iterations(measure, []variant{plain, traced, noObs}, tr)
	if err != nil {
		return nil, att, failed, err
	}
	root := tr.start("layers."+b.name, 0)
	lr, err := runLayers(b.cfg, b.sc.reports, tr, root.id, cost)
	root.end()
	if err != nil {
		return nil, att, failed, err
	}
	rows := tr.ledger(cost)
	fmt.Println("ledger (self time = span minus the part its children cover, clock cost subtracted):")
	printLedger(os.Stdout, rows, lr.records)
	path := tracePath(b.name, b.sc.seed)
	if err := tr.writeJSONL(path); err != nil {
		return nil, att, failed, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("wrote %d spans to %s\n", len(tr.spans), path)

	r := newReport()
	layerMetrics(r, b, its, lr, cost)
	return r, att, failed, nil
}

func rps(its []*iteration) float64 {
	var xs []float64
	for _, it := range its {
		xs = append(xs, float64(it.records)/it.rtWall.Seconds())
	}
	return median(xs)
}

func medianOf(its []*iteration, f func(*iteration) float64) float64 {
	var xs []float64
	for _, it := range its {
		xs = append(xs, f(it))
	}
	return median(xs)
}

func layerMetrics(r *report, b *bench, its map[variant][]*iteration, lr *layerReplay, cost time.Duration) {
	base := its[plain]
	n := float64(lr.records)
	crit := float64(lr.criticals)
	trip := float64(lr.triples)
	perRec := func(name string) float64 { return lr.ns(name) / n }

	r.set("mobility.decode_ns", "ns", perRec(lDecode))
	r.set("mobility.decode_allocs", "allocs", lr.allocs(lDecode)/n)
	r.set("mobility.encode_ns", "ns", perRec(lEncode))

	ingest := medianOf(base, func(it *iteration) float64 { return float64(it.ingest) / float64(it.records) })
	r.set("msg.ingest_ns", "ns", ingest)
	if b.name == "live" {
		var calls []float64
		for _, it := range base {
			for _, d := range it.produceCall {
				calls = append(calls, float64(d)/float64(time.Microsecond))
			}
		}
		r.set("msg.produce_batch_us", "us", median(calls))
	} else {
		r.na("msg.produce_batch_us", "us", "Ingest batches internally; the workload makes no ProduceBatch call")
	}
	r.set("msg.raw_backlog_max", "count", medianOf(base, func(it *iteration) float64 { return float64(it.backlogMax) }))
	r.set("msg.triples_bytes_per_triple", "bytes", medianOf(base, func(it *iteration) float64 { return it.triplesBytes }))

	skew := medianOf(base, func(it *iteration) float64 {
		var sum, hi float64
		for _, s := range it.stats.Shards {
			sum += float64(s.Records)
			hi = max(hi, float64(s.Records))
		}
		if len(it.stats.Shards) == 0 || sum == 0 {
			return 1 // serial run: one lane
		}
		return hi / (sum / float64(len(it.stats.Shards)))
	})
	r.set("shard.skew", "ratio", skew)

	r.set("synopses.ns", "ns", perRec(lSynopses))
	r.set("synopses.allocs", "allocs", lr.allocs(lSynopses)/n)
	r.set("synopses.critical_ratio", "ratio", crit/n)
	r.set("lowlevel.area_ns", "ns", perRec(lArea))
	r.set("lowlevel.profiler_ns", "ns", perRec(lProfiler))
	r.set("flp.ns", "ns", perRec(lFLP))
	r.set("flp.allocs", "allocs", lr.allocs(lFLP)/n)
	r.set("flp.bytes", "bytes", lr.bytesOf(lFLP)/n)
	r.set("rdfgen.ns_per_critical", "ns", lr.ns(lRDFGen)/crit)
	r.set("rdf.format_ns_per_triple", "ns", lr.ns(lFormat)/trip)
	r.set("rdf.parse_ns_per_triple", "ns", lr.ns(lParse)/trip)
	r.set("linkdisc.build_ms", "ms", ms(lr.maskBuild))
	r.set("linkdisc.ns_per_critical", "ns", lr.ns(lLinkdisc)/crit)
	r.set("linkdisc.mask_hit_ratio", "ratio", float64(lr.link.MaskSkips)/float64(lr.link.Entities))
	if b.cfg.Pattern != "" {
		r.set("cer.ns_per_critical", "ns", lr.ns(lCER)/crit)
	} else {
		r.na("cer.ns_per_critical", "ns", "CER is off in this workload's config")
	}
	r.set("va.dashboard_ns", "ns", perRec(lDash))

	if b.name == "replay" {
		r.set("checkpoint.captures", "count", medianOf(base, func(it *iteration) float64 { return float64(it.captures) }))
		r.set("checkpoint.capture_ms_mean", "ms", medianOf(base, func(it *iteration) float64 { return 1e3 * it.capture.Sum / float64(it.capture.Count) }))
		r.set("checkpoint.restore_ms_mean", "ms", medianOf(base, func(it *iteration) float64 { return 1e3 * it.restore.Sum / float64(it.restore.Count) }))
		r.set("checkpoint.bytes_per_capture", "bytes", medianOf(base, func(it *iteration) float64 { return float64(it.ckptSave) / float64(it.captures) }))
	} else {
		r.set("checkpoint.captures", "count", 0)
		for _, name := range []string{"checkpoint.capture_ms_mean", "checkpoint.restore_ms_mean", "checkpoint.bytes_per_capture"} {
			unit := "ms"
			if name == "checkpoint.bytes_per_capture" {
				unit = "bytes"
			}
			r.na(name, unit, "the workload runs no crash drill")
		}
	}
	r.set("checkpoint.replay_ratio", "ratio", medianOf(base, func(it *iteration) float64 { return float64(it.polled) / float64(it.records) }))

	r.set("store.load_ns_per_triple", "ns", lr.ns(lLoad)/trip)
	var cands, rejected, queries float64
	for _, it := range base {
		for _, qs := range it.queryStats {
			cands += float64(qs.Candidates)
			rejected += float64(qs.CellRejected)
			queries++
		}
	}
	r.set("store.candidates_per_query", "count", cands/queries)
	r.set("store.cell_pruned_ratio", "ratio", rejected/cands)

	// Reconciliation: Ingest + RunRealTime per record against the layers.
	e2eNs := medianOf(base, func(it *iteration) float64 { return float64(it.rtWall) / float64(it.records) })
	layers := ingest
	for _, l := range []string{lDecode, lArea, lFLP, lSynopses, lProfiler, lDash, lRDFGen, lFormat, lLinkdisc, lCER} {
		layers += perRec(l)
	}
	if b.name == "live" {
		why := "open loop: wall time is set by the arrival rate, not by the layers"
		r.na("core.run_ns", "ns", why)
		r.na("core.layer_sum_ns", "ns", why)
		r.na("core.merge_residual_ns", "ns", why)
	} else {
		r.set("core.run_ns", "ns", medianOf(base, func(it *iteration) float64 { return float64(it.runWall) / float64(it.records) }))
		r.set("core.layer_sum_ns", "ns", layers)
		r.set("core.merge_residual_ns", "ns", e2eNs-layers)
		verdict := "within"
		if math.Abs(e2eNs-layers) > reconcileTolerance*e2eNs {
			verdict = "OUTSIDE"
		}
		fmt.Printf("reconciliation: end-to-end %.1f ns/rec, layers %.1f ns/rec, residual %.1f ns/rec (%.1f%%), %s tolerance ±%.0f%%\n",
			e2eNs, layers, e2eNs-layers, 100*(e2eNs-layers)/e2eNs, verdict, 100*reconcileTolerance)
	}

	r.set("obs.overhead_ratio", "ratio", rps(its[noObs])/rps(base))
	r.set("go.alloc_bytes_per_record", "bytes", medianOf(base, func(it *iteration) float64 { return float64(it.gc.allocBytes) / float64(it.records) }))
	r.set("go.gc_cycles", "count", medianOf(base, func(it *iteration) float64 { return float64(it.gc.cycles) }))
	r.set("go.gc_pause_ms_total", "ms", medianOf(base, func(it *iteration) float64 { return ms(it.gc.pause) }))

	if b.name == "live" {
		var late []float64
		for _, it := range base {
			late = append(late, it.late...)
		}
		r.set("gen.late_p99_ms", "ms", quantile(late, 0.99))
		r.set("gen.late_max_ms", "ms", quantile(late, 1))
	} else {
		r.na("gen.late_p99_ms", "ms", "closed loop: no schedule to fall behind")
		r.na("gen.late_max_ms", "ms", "closed loop: no schedule to fall behind")
	}
	r.set("trace.overhead_ratio", "ratio", rps(base)/rps(its[traced]))
	r.set("trace.clock_ns", "ns", float64(cost))
}
