package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/match"
	"egocensus/internal/serve"
	"egocensus/internal/storage"
)

// timeIt calls fn under a span named name up to reps times, stopping
// early once budget is spent (but never before one call), and returns
// each call's duration.
func timeIt(tr *tracer, name string, reps int, budget time.Duration, fn func() error) ([]time.Duration, error) {
	var out []time.Duration
	began := time.Now()
	for i := 0; i < reps && (i == 0 || time.Since(began) < budget); i++ {
		sp := tr.start(name, nil, tr.newOp())
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// prober runs the kernel probes with one time budget per probe. The
// first error sticks: later probes are skipped and return no samples, so
// the probes read as straight-line code and err is checked once.
type prober struct {
	tr     *tracer
	budget time.Duration
	err    error
}

// do runs an untimed step of a probe under the same sticky error.
func (p *prober) do(fn func() error) {
	if p.err == nil {
		p.err = fn()
	}
}

func (p *prober) time(name string, reps int, fn func() error) []time.Duration {
	if p.err != nil {
		return nil
	}
	var d []time.Duration
	d, p.err = timeIt(p.tr, name, reps, p.budget, fn)
	return d
}

func sum(d []time.Duration) (total time.Duration) {
	for _, v := range d {
		total += v
	}
	return total
}

// statementProbes times the parser on every statement text of the
// workload and the planner on the first, and returns the algorithm the
// planner chose for it.
func statementProbes(p *prober, in *inputs, m map[string]metric) core.Algorithm {
	var parse []time.Duration
	for _, st := range in.wl.stmts {
		parse = append(parse, p.time("lang.Parse", 200, func() error { _, err := lang.Parse(st.text); return err })...)
	}
	m["lang.parse_us"] = metric{us(median(parse)), "us"}

	eng := core.NewEngine(in.g)
	eng.Opt.Workers = core.EffectiveWorkers(core.DefaultWorkers())
	var q *lang.SelectStmt
	p.do(func() error {
		script, err := lang.Parse(in.wl.stmts[0].text)
		if err != nil {
			return err
		}
		for _, pat := range script.Patterns {
			if err := eng.DefinePattern(pat); err != nil {
				return err
			}
		}
		q = script.Queries()[0]
		return nil
	})
	var chosen core.Algorithm
	p.do(func() error { // also memoizes the statistics snapshot
		phys, err := eng.Plan(q)
		if err == nil {
			chosen = core.Algorithm(phys.Algorithm(0))
		}
		return err
	})
	m["plan.optimize_us"] = metric{us(median(p.time("plan.Optimize", 200, func() error { _, err := eng.Plan(q); return err }))), "us"}
	return chosen
}

// censusSpec is the first statement's census on the first bucket, the
// unit of work the core probes time.
func censusSpec(in *inputs) (core.Spec, core.Options) {
	st := in.wl.stmts[0]
	return core.Spec{Pattern: st.ref, K: st.k, Focal: in.bucketNodes[0]},
		core.Options{Workers: core.EffectiveWorkers(core.DefaultWorkers()), Seed: 1}
}

// queryProbes calls the layers under a census query directly on the
// workload's own graph, statements and focal sets, one span per call:
// what no query loop can observe from outside.
func queryProbes(ctx context.Context, p *prober, in *inputs, m map[string]metric) (chosen core.Algorithm) {
	wl, g := in.wl, in.g
	chosen = statementProbes(p, in, m)

	// core: one bucket's census under each of the six algorithms, then
	// the planner's choice against the best, and at one worker.
	spec, opt := censusSpec(in)
	count := func(name string, alg core.Algorithm, opt core.Options) time.Duration {
		return median(p.time(name, 5, func() error {
			_, err := core.CountContext(ctx, g, spec, alg, opt)
			return err
		}))
	}
	census := map[core.Algorithm]time.Duration{}
	best := time.Duration(0)
	for _, alg := range core.Algorithms {
		census[alg] = count("core.Count."+string(alg), alg, opt)
		if best == 0 || census[alg] < best {
			best = census[alg]
		}
		m["core.census_ms."+string(alg)] = metric{ms(census[alg]), "ms"}
	}
	m["plan.regret_ratio"] = metric{float64(census[chosen]) / float64(best), "ratio"}
	m["core.worker_speedup"] = metric{
		float64(count("core.Count.workers1", chosen, core.Options{Workers: 1, Seed: 1})) / float64(census[chosen]), "ratio"}

	// match: global CN embeddings of every statement's pattern.
	var cnTime time.Duration
	embeddings := 0
	for _, st := range wl.stmts {
		found := 0
		cnTime += median(p.time("match.CN.Embeddings", 5, func() error {
			found = len(match.CN{}.Embeddings(g, st.ref))
			return nil
		}))
		embeddings += found
	}
	m["match.cn_embeddings_ms"] = metric{ms(cnTime), "ms"}
	m["match.matches_per_s"] = metric{float64(embeddings) / cnTime.Seconds(), "1/s"}

	// graph: 2-hop ego nets and k-hop sets of seeded sample nodes.
	var ego, hops []time.Duration
	hopNodes := 0
	for _, n := range in.sampleNodes(64) {
		ego = append(ego, p.time("graph.EgoSubgraph", 1, func() error { g.EgoSubgraph(n, 2); return nil })...)
		hops = append(hops, p.time("graph.KHopNodes", 1, func() error { hopNodes += len(g.KHopNodes(n, 2)); return nil })...)
	}
	m["graph.ego_subgraph_us"] = metric{us(median(ego)), "us"}
	m["graph.khop_nodes_per_us"] = metric{float64(hopNodes) / us(sum(hops)), "1/us"}

	// serve: the handler called directly, no socket. With the result
	// cache on, every key is requested once first, as the warm-up does.
	srvEng := core.NewEngine(g)
	srvEng.Opt.Workers = opt.Workers
	srvEng.Seed = 1
	srv := serve.New(srvEng, serve.Config{})
	call := func(body []byte) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	if !wl.noCache {
		for _, rq := range in.requests {
			p.do(func() error { return call(rq.body) })
		}
	}
	stream := newRequestStream(in, 0, false)
	m["serve.handler_us"] = metric{us(median(p.time("serve.ServeHTTP", 200, func() error { return call(stream.next().body) }))), "us"}
	return chosen
}

// pinTaxProbe times the planner's choice on a frozen copy of the graph,
// as a live engine runs it, against queryProbes' time for the same
// census on the plain graph.
func pinTaxProbe(ctx context.Context, p *prober, in *inputs, chosen core.Algorithm, m map[string]metric) {
	spec, opt := censusSpec(in)
	snap := graph.Freeze(in.g.Clone())
	pinned := median(p.time("core.CountSnapshot", 5, func() error {
		_, err := core.CountSnapshotContext(ctx, snap, spec, chosen, opt)
		return err
	}))
	m["core.snapshot_pin_tax_ratio"] = metric{ms(pinned) / m["core.census_ms."+string(chosen)].Value, "ratio"}
}

// publishMemProbe times the ingest operation on a writer with no WAL
// behind it, at the workload's shard count.
func publishMemProbe(p *prober, in *inputs, m map[string]metric) {
	w := graph.NewShardedWriter(in.g.Clone(), in.wl.shards)
	edges := newEdgeStream(in)
	d := p.time("graph.publish_mem", 60, func() error {
		for j := 0; j < batchEdges; j++ {
			w.AddEdge(edges.next())
		}
		_, err := w.Publish()
		return err
	})
	m["graph.publish_mem_us"] = metric{us(median(d)), "us"}
}

// coldOpenProbes times the steps of the cold-open path one by one: the
// parser and planner on its statement, the statistics pass, and saving,
// opening and hydrating the image.
func coldOpenProbes(p *prober, in *inputs, outDir string, m map[string]metric) {
	g := in.g
	statementProbes(p, in, m)
	m["graph.stats_ms"] = metric{ms(median(p.time("graph.ComputeStats", 10, func() error { graph.ComputeStats(g); return nil }))), "ms"}

	var dir string
	p.do(func() (err error) { dir, err = os.MkdirTemp(outDir, "tmp-kernels-"); return err })
	if p.err != nil {
		return
	}
	defer os.RemoveAll(dir)
	image := filepath.Join(dir, "probe.egoc")
	m["storage.save_ms"] = metric{ms(median(p.time("storage.Save", 10, func() error { return storage.Save(image, g) }))), "ms"}
	p.do(func() error {
		fi, err := os.Stat(image)
		if err == nil {
			m["storage.image_bytes_per_edge"] = metric{float64(fi.Size()) / float64(g.NumEdges()), "B"}
		}
		return err
	})
	var hydrates []time.Duration
	for i := 0; i < 10 && p.err == nil; i++ {
		var store *storage.Store
		p.do(func() (err error) { store, err = storage.Open(image, 0); return err })
		if p.err != nil {
			break
		}
		hydrates = append(hydrates, p.time("storage.Store.Graph", 1, func() error { _, err := store.Graph(); return err })...)
		store.Close()
	}
	m["storage.hydrate_ms"] = metric{ms(median(hydrates)), "ms"}
}

// encodeProbe re-marshals the decoded responses the loop kept, the way
// the server's encoder does, and returns the median time.
func encodeProbe(p *prober, wire []wireSample) time.Duration {
	var all []time.Duration
	for _, ws := range wire {
		if ws.resp == nil {
			continue
		}
		all = append(all, p.time("serve.encode", 1, func() error {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			return enc.Encode(ws.resp)
		})...)
	}
	return median(all)
}
