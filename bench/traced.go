package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"egocensus/internal/core"
)

// runTraced is the per-layer pass. It runs the workload's own loop
// untraced, traced, untraced (for the tracing overhead), then calls the
// layers on the workload's path directly (the probes in kernels.go),
// writes the spans to trace-<workload>.jsonl and derives the per-layer
// metrics of that path: a workload reports a metric only when its own
// operations go through the layer the metric describes.
func runTraced(ctx context.Context, cfg runConfig) (*result, error) {
	wl := cfg.wl
	tr := newTracer()
	res := &result{}
	e, err := setup(ctx, wl, cfg.seed, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer e.close()

	// pass runs n operations of the workload's loop and books them.
	giveUp := giveUpFactor * cfg.seconds
	pass := func(n int, tr *tracer) (*outcome, error) {
		o, err := e.ownLoop(ctx, max(n, 1), giveUp, tr, cfg.ref)
		res.Attempted += o.ops.attempted
		res.Failed += o.ops.failed + o.wrong
		return &o, err
	}
	// Untraced, traced, untraced: state that grows with every operation
	// (an ingest store) drifts the same way through both halves of the
	// untraced sample, so the drift cancels out of the overhead ratio.
	n := wl.ops(cfg.seconds)
	before, err := pass(n/10, nil)
	if err != nil {
		return nil, err
	}
	during, err := pass(n/5, tr)
	if err != nil {
		return nil, err
	}
	after, err := pass(n/10, nil)
	if err != nil {
		return nil, err
	}
	plain := append(before.ops.lat, after.ops.lat...)

	m := map[string]metric{}
	p := &prober{tr: tr, budget: cfg.seconds / 12}
	if wl.kind == kindQuery || wl.kind == kindMixed {
		chosen := queryProbes(ctx, p, e.in, m)
		queryLoopMetrics(p, during, chosen, m)
		if wl.kind == kindMixed {
			pinTaxProbe(ctx, p, e.in, chosen, m)
			lateness, _ := supportedPercentile(sortedCopy(during.lateness), 0.95)
			m["bench.writer_lateness_ms"] = metric{ms(lateness), "ms"}
		}
	}
	if wl.kind == kindColdOpen {
		coldOpenProbes(p, e.in, cfg.outDir, m)
	}
	if wl.kind == kindIngest {
		publishMemProbe(p, e.in, m)
	}
	if e.ds != nil {
		if err := e.storeMetrics(ctx, tr, during, m); err != nil {
			return nil, err
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	m["bench.trace_overhead_ratio"] = metric{float64(median(during.ops.lat)) / float64(median(plain)), "ratio"}

	// What the load generator itself costs per operation: the part of an
	// operation's root span that no call into the program covers.
	spans := tr.snapshot()
	self := selfByName(spans)
	root := map[kind]string{kindQuery: "bench.query_op", kindMixed: "bench.query_op", kindColdOpen: "bench.cold_op", kindIngest: "bench.ingest_op"}
	m["bench.op_self_us"] = metric{us(median(self[root[wl.kind]])), "us"}
	if wl.kind == kindColdOpen {
		// storage.Open has no child span: its self time is its duration.
		m["storage.open_us"] = metric{us(median(self["storage.Open"])), "us"}
	}

	if err := writeJSONL(filepath.Join(cfg.outDir, "trace-"+wl.name+".jsonl"), spans); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	res.Metrics = m
	res.Correct = res.Failed == 0
	return res, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// queryLoopMetrics derives what a traced query loop observed from
// outside: the wire statistics of its responses, the server's counter
// deltas, and the cost of encoding the responses it kept. chosen is the
// planner's algorithm for the first statement.
func queryLoopMetrics(p *prober, o *outcome, chosen core.Algorithm, m map[string]metric) {
	wire := o.queries.wire
	pick := func(f func(wireSample) float64) float64 {
		v := make([]float64, len(wire))
		for i, ws := range wire {
			v[i] = f(ws)
		}
		return medianFloat(v)
	}
	// A result-cache hit ran no stage (its stage times describe the run
	// that filled the cache), so it spent zero time in each.
	ran := func(ws wireSample, us int64) float64 {
		if ws.stats.ResultCached {
			return 0
		}
		return float64(us)
	}
	staged := func(ws wireSample) time.Duration {
		s := ws.stats
		return time.Duration(ran(ws, s.ParseMicros+s.PlanMicros+s.FocalMicros+s.CensusMicros+s.RenderMicros)) * time.Microsecond
	}
	m["core.focal_us"] = metric{pick(func(ws wireSample) float64 { return ran(ws, ws.stats.FocalMicros) }), "us"}
	m["core.census_us"] = metric{pick(func(ws wireSample) float64 { return ran(ws, ws.stats.CensusMicros) }), "us"}
	m["core.render_us"] = metric{pick(func(ws wireSample) float64 { return ran(ws, ws.stats.RenderMicros) }), "us"}
	m["core.focal_count"] = metric{pick(func(ws wireSample) float64 { return float64(ws.stats.FocalCount) }), "count"}
	m["core.match_set_size"] = metric{pick(func(ws wireSample) float64 { return float64(ws.stats.MatchSetSize) }), "count"}
	m["core.rows"] = metric{pick(func(ws wireSample) float64 { return float64(ws.stats.Rows) }), "count"}
	m["serve.wire_overhead_us"] = metric{pick(func(ws wireSample) float64 { return us(ws.client - ws.elapsed) }), "us"}
	m["serve.unattributed_us"] = metric{pick(func(ws wireSample) float64 { return us(ws.elapsed - staged(ws)) }), "us"}
	m["serve.response_bytes"] = metric{pick(func(ws wireSample) float64 { return float64(ws.bytes) }), "B"}
	m["serve.encode_us"] = metric{us(encodeProbe(p, wire)), "us"}
	// A pattern-driven census starts with exactly the global match the CN
	// probe timed; a node-driven one never calls it.
	share := 0.0
	if census := m["core.census_us"].Value; census > 0 && strings.HasPrefix(string(chosen), "PT-") {
		share = m["match.cn_embeddings_ms"].Value * 1000 / census
	}
	m["match.cn_share_of_census"] = metric{share, "ratio"}

	before, after := o.stats[0], o.stats[1]
	planHits := after.Cache.Plan.Hits - before.Cache.Plan.Hits
	planMiss := after.Cache.Plan.Misses - before.Cache.Plan.Misses
	resHits := after.Cache.Result.Hits - before.Cache.Result.Hits
	resMiss := after.Cache.Result.Misses - before.Cache.Result.Misses
	m["plan.cache_hit_ratio"] = metric{ratio(planHits, planHits+planMiss), "ratio"}
	m["plan.evictions"] = metric{float64(after.PlanEvictions - before.PlanEvictions), "count"}
	m["core.result_cache_hit_ratio"] = metric{ratio(resHits, resHits+resMiss), "ratio"}
	m["core.result_cache_evictions"] = metric{float64(after.ResultEvictions - before.ResultEvictions), "count"}
	m["serve.rejected_ratio"] = metric{ratio(after.Rejected-before.Rejected, after.Requests-before.Requests), "ratio"}
	p99, _ := supportedPercentile(sortedCopy(o.ops.lat), 0.99)
	m["serve.latency_p99_ms"] = metric{ms(p99), "ms"}
}

// storeMetrics derives what the traced loop's publishes asked of the
// filesystem, then reopens the store from disk (checking durability,
// timing the replay) and times one explicit compaction.
func (e *env) storeMetrics(ctx context.Context, tr *tracer, o *outcome, m map[string]metric) error {
	fs, publishes := o.fs, float64(o.batches)
	m["storage.fsyncs_per_publish"] = metric{float64(fs.logSyncs) / publishes, "count"}
	m["storage.writes_per_publish"] = metric{float64(fs.logWrites) / publishes, "count"}
	m["storage.log_bytes_per_edge"] = metric{float64(fs.logWriteBytes) / (publishes * batchEdges), "B"}
	m["storage.compactions"] = metric{float64(fs.imageRenames), "count"}
	m["storage.wal_us"] = metric{us(time.Duration(fs.logNanos)) / publishes, "us"}

	// The slowest publish that overlapped an image save: with one writer
	// each compaction stalls at most one publish, so there are too few
	// such publishes for a percentile and the maximum is reported. When
	// no publish met a save, the slowest publish of the loop stands in.
	var stall, slowest time.Duration
	for _, p := range o.publishes {
		lat := p.to.Sub(p.from)
		slowest = max(slowest, lat)
		for _, s := range o.saves {
			if p.from.Before(s.to) && s.from.Before(p.to) {
				stall = max(stall, lat)
			}
		}
	}
	if stall == 0 {
		stall = slowest
	}
	m["storage.publish_stall_p99_ms"] = metric{ms(stall), "ms"}

	reopen, err := e.verifyDurable(ctx, tr)
	if err != nil {
		return err
	}
	m["storage.replay_open_ms"] = metric{ms(reopen), "ms"}
	compact, err := timeIt(tr, "storage.Compact", 1, 0, e.ds.Compact)
	if err != nil {
		return err
	}
	m["storage.compact_ms"] = metric{ms(compact[0]), "ms"}
	return nil
}
