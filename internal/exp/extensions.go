package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"egocensus/internal/core"
	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/pattern"
	"egocensus/internal/signature"
)

// FigExt measures the repository's extensions beyond the paper: the
// distance-shortcut ablation, parallel-worker scaling, batched
// multi-pattern evaluation, incremental maintenance vs recomputation,
// match-sampling approximation error, and signature pruning power. It is
// registered as figure "ext" in cmd/experiments.
func FigExt(cfg Config, progress io.Writer) ([]Measurement, error) {
	n := map[Scale]int{Unit: 2000, Small: 20000, Paper: 200000}[cfg.Scale]
	g := labeledGraph(n, cfg.Seed)
	g.BuildProfiles()
	spec := core.Spec{Pattern: clq3(), K: 2}
	base := ptOptions(g, cfg.Seed)
	var out []Measurement
	add := func(m Measurement, name, config string) {
		m.Labels = append([]KV{{"experiment", name}, {"config", config}}, m.Labels...)
		out = append(out, m)
		progressf(progress, "ext %s %s: %.3fs\n", name, config, m.Seconds)
	}

	// Distance shortcuts (Section IV-B2 ablation).
	m, err := runCensus(g, spec, core.PTOpt, base)
	if err != nil {
		return nil, err
	}
	add(m, "shortcuts", "on")
	noSc := base
	noSc.DisableShortcuts = true
	if m, err = runCensus(g, spec, core.PTOpt, noSc); err != nil {
		return nil, err
	}
	add(m, "shortcuts", "off")

	// Parallel workers.
	for _, w := range []int{1, 2, 4, 8} {
		opt := base
		opt.Workers = w
		if m, err = runCensus(g, spec, core.PTOpt, opt); err != nil {
			return nil, err
		}
		add(m, "workers-ptopt", fmt.Sprint(w))
		if m, err = runCensus(g, spec, core.NDPvot, opt); err != nil {
			return nil, err
		}
		add(m, "workers-ndpvot", fmt.Sprint(w))
	}

	// Batched multi-pattern evaluation.
	specs := []core.Spec{
		{Pattern: clq3Unlb(), K: 2},
		{Pattern: clq3(), K: 2},
	}
	secs := timeIt(func() {
		_, err = core.CountMany(g, specs, base)
	})
	if err != nil {
		return nil, err
	}
	add(Measurement{Seconds: secs}, "count-many", "batched")
	secs = timeIt(func() {
		for _, s := range specs {
			if _, err = core.Count(g, s, core.NDPvot, base); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	add(Measurement{Seconds: secs}, "count-many", "separate")

	// Incremental maintenance vs recomputation (k=1): a writer publishes
	// random edges in batches of 1, 16 and 256 and a Maintainer follows
	// the published snapshots; each batch row is the cost of one publish,
	// maintenance included, comparable with the one recompute row.
	incSpec := core.Spec{Pattern: clq3Unlb(), K: 1}
	w := graph.NewShardedWriter(gen.PreferentialAttachment(n, edgeFactor, cfg.Seed+7), 1)
	mt := core.NewMaintainer(w.Snapshot())
	if err := mt.Register("inc", incSpec, core.Options{Seed: cfg.Seed}); err != nil {
		return nil, err
	}
	w.Subscribe(func(s *graph.Snapshot, d graph.Delta) {
		if e := mt.Apply(s, d); e != nil && err == nil {
			err = e
		}
	})
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	for _, batch := range []int{1, 16, 256} {
		edges := max(batch, 64)
		secs = timeIt(func() {
			for i := 1; i <= edges; i++ {
				w.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
				if i%batch == 0 {
					w.Publish()
				}
			}
		})
		if err != nil {
			return nil, err
		}
		add(Measurement{Seconds: secs / float64(edges/batch)}, "incremental", fmt.Sprintf("batch-%d", batch))
	}
	secs = timeIt(func() {
		_, err = core.CountSnapshot(w.Snapshot(), incSpec, core.NDPvot, core.Options{Seed: cfg.Seed})
	})
	if err != nil {
		return nil, err
	}
	add(Measurement{Seconds: secs}, "incremental", "recompute")

	// Approximation error vs sampling rate.
	exact, err := core.Count(g, spec, core.PTOpt, base)
	if err != nil {
		return nil, err
	}
	var exactTotal float64
	for _, c := range exact.Counts {
		exactTotal += float64(c)
	}
	for _, rate := range []float64{0.1, 0.25, 0.5, 1.0} {
		var approx *core.ApproxResult
		secs := timeIt(func() {
			approx, err = core.CountApprox(g, spec, rate, base)
		})
		if err != nil {
			return nil, err
		}
		var estTotal float64
		for _, e := range approx.Est {
			estTotal += e
		}
		relErr := 0.0
		if exactTotal > 0 {
			relErr = math.Abs(estTotal-exactTotal) / exactTotal
		}
		add(Measurement{
			Seconds: secs,
			Values: []KV{
				{"relError", fmt.Sprintf("%.4f", relErr)},
				{"sampled", fmt.Sprint(approx.SampledMatches)},
			},
		}, "approx", fmt.Sprintf("rate=%.2f", rate))
	}

	// Signature pruning power for a clq4 query.
	idx, err := signature.Build(g, signature.Config{K: 1})
	if err != nil {
		return nil, err
	}
	q := clq4ForSig()
	qsig, err := idx.QuerySignatures(q)
	if err != nil {
		return nil, err
	}
	kept := len(idx.Candidates(g, q, qsig, 0))
	add(Measurement{
		Values: []KV{
			{"candidates", fmt.Sprint(kept)},
			{"of", fmt.Sprint(g.NumNodes())},
			{"keptFrac", fmt.Sprintf("%.4f", float64(kept)/float64(g.NumNodes()))},
		},
	}, "signature", "clq4-prune")

	return out, nil
}

func clq4ForSig() *pattern.Pattern {
	return pattern.Clique("clq4", 4, nil)
}
