package main

import (
	"fmt"
)

// runPerLayer is the traced run. It serves a window a third as long as the
// untraced run's, only to read each layer's own counters around it
// (server, buffer pool, epochs, Go runtime); then it runs every distinct
// query traceRepeats times through runRequest on the same database,
// recording spans, and probes the read and write calls directly. Its times
// are never reported as end-to-end numbers.
func runPerLayer(s spec, cfg config) (*result, error) {
	p, err := prepareWorkload(s, cfg, false)
	if err != nil {
		return nil, err
	}
	defer p.in.close()
	w := serve(p.in, p.reqs, cfg.seed, p.batches, cfg.window/3)
	r, err := p.newResult(w)
	if err != nil {
		return r, err
	}
	m := &r.Metrics
	p.windowMetrics(m, w)
	progress("%s: served window done", s.name)

	tr := newTracer()
	rows, err := runPass(tr, p.in.db, p.qs)
	if err != nil {
		return r, fmt.Errorf("traced pass: %w", err)
	}
	for i, n := range rows {
		if n != p.answers[i].Rows {
			return r, fmt.Errorf("traced pass: %s returned %d rows, the server %d", p.qs[i].Name, n, p.answers[i].Rows)
		}
	}
	tot := tr.totals()
	spanMetrics(m, tot)
	if err := tr.write(cfg.outDir, s.name, cfg.seed); err != nil {
		return r, fmt.Errorf("write trace: %w", err)
	}
	progress("%s: traced pass done", s.name)

	untracedMS, err := probeHTTP(m, p.in, p.qs)
	if err != nil {
		return r, err
	}
	// The traced pass against the server's own untraced in-process path,
	// per query. Encoding is left out of the traced side because
	// QueryPatternOpts returns rows, not JSON. A ratio near 1 says both
	// that recording spans costs little and that runRequest re-enacts the
	// server faithfully.
	tracedMS := float64(tot["request"].ns-tot["server.encode"].ns) / 1e6 / float64(tot["request"].n)
	m.add("trace_overhead_ratio", ratio(tracedMS, untracedMS), "ratio")
	if err := probeReads(m, p.in.db, p.qs, cfg.seed); err != nil {
		return r, fmt.Errorf("read probes: %w", err)
	}
	if err := probeStorage(m, cfg.seed); err != nil {
		return r, fmt.Errorf("storage probes: %w", err)
	}
	if err := probeWrites(m, p.in, s.poolBytes, cfg.seed, cfg.outDir); err != nil {
		return r, err
	}
	return r, nil
}

// windowMetrics reports what each layer's own counters saw over the served
// window, and the breakdown of the set-up that preceded it.
func (p *prepared) windowMetrics(m *metrics, w window) {
	in := p.in
	queries := float64(len(w.latMS))
	a, b := w.after.srv, w.before.srv
	hits, misses := float64(a.PlanCacheHits-b.PlanCacheHits), float64(a.PlanCacheMisses-b.PlanCacheMisses)
	m.add("server.plan_cache_hit_ratio", ratio(hits, hits+misses+float64(a.PlanCoalesced-b.PlanCoalesced)), "ratio")
	m.add("server.plan_coalesced", float64(a.PlanCoalesced-b.PlanCoalesced), "count")
	m.add("server.queued", float64(a.Queued-b.Queued), "count")
	m.add("server.rejections", float64(a.Rejections-b.Rejections), "count")
	// The write metrics are 0 on the read-only workloads.
	m.add("server.write_p50_ms", median(w.writes.latMS), "ms")
	m.add("server.write_p90_ms", quantile(w.writes.latMS, 0.9), "ms")
	m.add("server.write_lag_max_ms", w.writes.lagMaxMS, "ms")

	io := a.IO.Sub(b.IO)
	m.add("storage.pool_hit_ratio", ratio(float64(io.Hits), float64(io.Logical())), "ratio")
	m.add("storage.pool_misses_per_query", ratio(float64(io.Misses), queries), "count")
	m.add("storage.pager_reads_per_query", ratio(float64(io.Reads), queries), "count")
	m.add("storage.logical_pages_per_row", ratio(float64(io.Logical()), float64(w.rows)), "count")

	// Read after the window and, on mixed_rw, the restore check: every
	// reader has released its pin, so one epoch is live and every
	// superseded one has retired. A lag or a second pin is a leak.
	es := in.db.EpochStats()
	m.add("epoch.publishes", float64(a.CurrentEpoch-b.CurrentEpoch), "count")
	m.add("epoch.retired_lag", float64(es.Current-es.Retired), "count")
	m.add("epoch.pinned_at_end", float64(es.Pinned), "count")

	// The setup_s breakdown. On read_skew the generator timed is the
	// benchmark's own power-law one, under the same name.
	m.add("xmark.generate_s", in.generateS, "s")
	m.add("reach.build_s", in.reachS, "s")
	m.add("reach.label_entries", float64(in.idx.Size()), "count")
	m.add("gdb.build_s", in.buildS, "s")
	m.add("gdb.index_bytes_per_edge", ratio(float64(in.indexBytes), float64(in.g.NumEdges())), "B")

	mem0, mem1 := w.before.mem, w.after.mem
	m.add("go.gc_cycles", float64(mem1.NumGC-mem0.NumGC), "count")
	m.add("go.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, "ms")
	m.add("go.allocs_per_query", ratio(float64(mem1.Mallocs-mem0.Mallocs), queries), "count")
}

// spanMetrics turns the traced pass's span totals into per-layer metrics.
// Times are means per request; each is printed with its share of the
// request or, for the operators and exec's self time, of exec.run_ms.
func spanMetrics(m *metrics, tot map[string]*total) {
	get := func(name string) *total {
		if t := tot[name]; t != nil {
			return t
		}
		return &total{counts: map[string]int64{}}
	}
	req, run, plan, enc := get("request"), get("exec.run"), get("optimizer.plan"), get("server.encode")
	n := float64(req.n)
	perReq := func(ns int64) float64 { return float64(ns) / n }
	ofRequest := func(name string, ns int64, unit string, scale float64) {
		m.addShare(name, perReq(ns)/scale, unit, ratio(float64(ns), float64(req.ns)), "request")
	}
	ofRun := func(name string, ns int64) {
		m.addShare(name, perReq(ns)/1e6, "ms", ratio(float64(ns), float64(run.ns)), "exec.run_ms")
	}

	ofRequest("pattern.parse_us", get("pattern.parse").ns, "us", 1e3)
	ofRequest("optimizer.plan_ms", plan.ns, "ms", 1e6)
	m.add("optimizer.plan_allocs", float64(plan.counts["allocs"])/n, "count")
	for _, tier := range []string{"tier1", "tier2", "tier3"} {
		m.add("optimizer."+tier+"_share", float64(plan.counts[tier])/n, "ratio")
	}
	m.add("optimizer.wcoj_share", float64(plan.counts["wcoj"])/n, "ratio")
	ofRequest("exec.run_ms", run.ns, "ms", 1e6)
	ofRun("exec.self_ms", run.selfNS)
	m.add("exec.allocs_per_row", ratio(float64(run.counts["allocs"]), float64(run.counts["rows"])), "count")

	var stepRows int64
	for _, op := range []string{"hpsj", "filter", "fetch", "selection", "wcoj"} {
		t := get("rjoin." + op)
		ofRun("rjoin."+op+"_ms", t.ns)
		stepRows += t.counts["rows"]
	}
	m.add("rjoin.fetch_pages", float64(get("rjoin.fetch").counts["pages"])/n, "count")
	m.add("rjoin.filter_pages", float64(get("rjoin.filter").counts["pages"])/n, "count")
	// Rows the operators produced per row finally returned: the wasted work.
	m.add("rjoin.intermediate_rows_per_result", ratio(float64(stepRows), float64(run.counts["rows"])), "ratio")
	cc := run.counts["center_cache_hits"]
	m.add("rjoin.center_cache_hit_ratio", ratio(float64(cc), float64(cc+run.counts["center_cache_misses"])), "ratio")
	m.add("rjoin.parallel_op_ratio", ratio(float64(run.counts["parallel_ops"]), float64(run.counts["ops"])), "ratio")
	m.add("rjoin.worker_utilization", ratio(float64(run.counts["tasks"]), float64(run.counts["worker_slots"])), "ratio")
	wcoj := get("rjoin.wcoj")
	m.add("rjoin.wcoj_seeks_per_row", ratio(float64(wcoj.counts["seeks"]), float64(wcoj.counts["rows"])), "ratio")

	ofRequest("server.encode_ms", enc.ns, "ms", 1e6)
	m.add("server.encode_bytes_per_row", ratio(float64(enc.counts["bytes"]), float64(enc.counts["rows"])), "B")
	// The share of in-process request time that lies inside a named child
	// span; the rest is the benchmark's own glue between the calls.
	m.add("trace_attributed_ratio", 1-ratio(float64(req.selfNS), float64(req.ns)), "ratio")
}
