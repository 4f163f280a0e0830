// Benchmarks mirroring the paper's evaluation, one family per figure.
// Each sub-benchmark exercises exactly the code path of the corresponding
// experiment at a benchmark-friendly size; cmd/experiments runs the full
// parameter sweeps (up to the paper's 1M-node scale with -scale paper).
package egocensus

import (
	"fmt"
	"math/rand"
	"testing"

	"egocensus/internal/centers"
	"egocensus/internal/core"
	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/linkpred"
	"egocensus/internal/match"
	"egocensus/internal/pattern"
)

const benchEdgeFactor = 5

func benchLabeledGraph(n int) *graph.Graph {
	g := gen.PreferentialAttachment(n, benchEdgeFactor, 1)
	gen.AssignLabels(g, 4, 2)
	g.BuildProfiles()
	return g
}

func benchUnlabeledGraph(n int) *graph.Graph {
	g := gen.PreferentialAttachment(n, benchEdgeFactor, 1)
	g.BuildProfiles()
	return g
}

func benchClq3() *pattern.Pattern {
	return pattern.Clique("clq3", 3, []string{"l0", "l1", "l2"})
}

// benchPTOptions prebuilds the paper's 12 high-degree centers (an offline
// index per Section IV-B4), so benchmarks time query evaluation only.
func benchPTOptions(g *graph.Graph) core.Options {
	idx := centers.Build(g, 12, centers.ByDegree, 1)
	return core.Options{Seed: 1, PMDCenters: idx, ClusterCenters: idx}
}

// BenchmarkFig4a — CN vs GQL matching, labeled clq3/clq4 (Fig 4(a): CN
// wins by 10–140x at paper scale).
func BenchmarkFig4a(b *testing.B) {
	g := benchLabeledGraph(4000)
	pats := map[string]*pattern.Pattern{
		"clq3": benchClq3(),
		"clq4": pattern.Clique("clq4", 4, []string{"l0", "l1", "l2", "l3"}),
	}
	for _, pname := range []string{"clq3", "clq4"} {
		for _, m := range []match.Matcher{match.CN{}, match.GQL{}} {
			b.Run(fmt.Sprintf("%s/%s", pname, m.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					match.FindMatches(m, g, pats[pname])
				}
			})
		}
	}
}

// BenchmarkFig4b — CN vs GQL across the Figure 3 pattern set (Fig 4(b):
// GQL's sqr run is the 480x blow-up).
func BenchmarkFig4b(b *testing.B) {
	g := benchLabeledGraph(4000)
	pats := []*pattern.Pattern{
		benchClq3(),
		pattern.Clique("clq4", 4, []string{"l0", "l1", "l2", "l3"}),
		pattern.Square("sqr", []string{"l0", "l1", "l0", "l1"}),
	}
	for _, p := range pats {
		p := p
		for _, m := range []match.Matcher{match.CN{}, match.GQL{}} {
			b.Run(fmt.Sprintf("%s/%s", p.Name, m.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					match.FindMatches(m, g, p)
				}
			})
		}
	}
	// chain4 and star4 have enormous match sets; benchmark CN only.
	for _, p := range []*pattern.Pattern{
		pattern.Chain("chain4", 4, []string{"l0", "l1", "l2", "l3"}),
		pattern.Star("star4", 4, []string{"l0", "l1", "l2", "l3"}),
	} {
		p := p
		b.Run(fmt.Sprintf("%s/CN", p.Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				match.FindMatches(match.CN{}, g, p)
			}
		})
	}
}

func benchCensus(b *testing.B, g *graph.Graph, spec core.Spec, alg core.Algorithm, opt core.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := core.Count(g, spec, alg, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4c — unlabeled triangle census, k=2, all algorithms
// (Fig 4(c): ND-PVOT wins on non-selective patterns; ND-BAS is 218x
// slower than ND-PVOT at the paper's 20K-node point).
func BenchmarkFig4c(b *testing.B) {
	g := benchUnlabeledGraph(1000)
	spec := core.Spec{Pattern: pattern.Clique("clq3-unlb", 3, nil), K: 2}
	opt := benchPTOptions(g)
	for _, alg := range core.Algorithms {
		b.Run(string(alg), func(b *testing.B) {
			benchCensus(b, g, spec, alg, opt)
		})
	}
}

// BenchmarkFig4d — labeled triangle census, k=2 (Fig 4(d): pattern-driven
// algorithms win on selective patterns; best-first beats random order).
func BenchmarkFig4d(b *testing.B) {
	g := benchLabeledGraph(2000)
	spec := core.Spec{Pattern: benchClq3(), K: 2}
	opt := benchPTOptions(g)
	for _, alg := range []core.Algorithm{core.NDDiff, core.NDPvot, core.PTBas, core.PTRnd, core.PTOpt} {
		b.Run(string(alg), func(b *testing.B) {
			benchCensus(b, g, spec, alg, opt)
		})
	}
}

// BenchmarkFig4e — focal selectivity sweep (Fig 4(e): node-driven cost
// grows with R, pattern-driven cost is flat).
func BenchmarkFig4e(b *testing.B) {
	g := benchUnlabeledGraph(1000)
	p := pattern.Clique("clq3-unlb", 3, nil)
	opt := benchPTOptions(g)
	for _, r := range []float64{0.2, 1.0} {
		rng := rand.New(rand.NewSource(9))
		var focal []graph.NodeID
		for i := 0; i < g.NumNodes(); i++ {
			if rng.Float64() < r {
				focal = append(focal, graph.NodeID(i))
			}
		}
		spec := core.Spec{Pattern: p, K: 2, Focal: focal}
		for _, alg := range []core.Algorithm{core.NDPvot, core.PTOpt} {
			b.Run(fmt.Sprintf("R=%.0f%%/%s", r*100, alg), func(b *testing.B) {
				benchCensus(b, g, spec, alg, opt)
			})
		}
	}
}

// BenchmarkFig4f — PT-OPT with varying PMD center counts and strategies,
// clustering centers held fixed (Fig 4(f)).
func BenchmarkFig4f(b *testing.B) {
	g := benchLabeledGraph(2000)
	spec := core.Spec{Pattern: benchClq3(), K: 2}
	clusterIdx := centers.Build(g, 12, centers.ByDegree, 1)
	for _, strat := range []struct {
		name string
		s    centers.Strategy
	}{{"DEG-CNTR", centers.ByDegree}, {"RND-CNTR", centers.Random}} {
		for _, nc := range []int{0, 12, 24} {
			idx := centers.Build(g, nc, strat.s, 1)
			b.Run(fmt.Sprintf("%s/centers=%d", strat.name, nc), func(b *testing.B) {
				benchCensus(b, g, spec, core.PTOpt, core.Options{
					Seed: 1, PMDCenters: idx, ClusterCenters: clusterIdx,
				})
			})
		}
	}
}

// BenchmarkFig4g — PT-OPT clustering variants (Fig 4(g): OPT-CLUST beats
// RND-CLUST and NO-CLUST; too many or too few clusters hurt).
func BenchmarkFig4g(b *testing.B) {
	g := benchLabeledGraph(2000)
	spec := core.Spec{Pattern: benchClq3(), K: 2}
	base := benchPTOptions(g)
	noClust := base
	noClust.NoClustering = true
	b.Run("NO-CLUST", func(b *testing.B) {
		benchCensus(b, g, spec, core.PTOpt, noClust)
	})
	for _, k := range []int{10, 40} {
		rnd := base
		rnd.Clusters, rnd.RandomClustering = k, true
		b.Run(fmt.Sprintf("RND-CLUST/k=%d", k), func(b *testing.B) {
			benchCensus(b, g, spec, core.PTOpt, rnd)
		})
		kopt := base
		kopt.Clusters = k
		b.Run(fmt.Sprintf("OPT-CLUST/k=%d", k), func(b *testing.B) {
			benchCensus(b, g, spec, core.PTOpt, kopt)
		})
	}
}

// BenchmarkFig4h — the link-prediction pairwise censuses (Fig 4(h) and
// the Section V-B runtime comparison: PT-OPT 0.9x–3.4x vs PT-BAS).
func BenchmarkFig4h(b *testing.B) {
	cfg := gen.DefaultCoauthConfig()
	cfg.Authors, cfg.PapersPerYear = 400, 70
	corpus := gen.GenerateCoauthorship(cfg)
	train, _ := corpus.Graph(2001, 2005)
	train.BuildProfiles()
	trainOpt := benchPTOptions(train)
	for _, m := range []linkpred.Measure{
		{Name: "node@2", Structure: "node", R: 2},
		{Name: "triangle@3", Structure: "triangle", R: 3},
	} {
		for _, alg := range []core.Algorithm{core.PTBas, core.PTOpt} {
			b.Run(fmt.Sprintf("%s/%s", m.Name, alg), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := m.Score(train, alg, trainOpt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	b.Run("jaccard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linkpred.Jaccard(train)
		}
	})
}

// BenchmarkMatchCN isolates the matcher on growing graphs (the raw series
// behind Fig 4(a)).
func BenchmarkMatchCN(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000, 8000} {
		g := benchLabeledGraph(n)
		p := benchClq3()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				match.FindMatches(match.CN{}, g, p)
			}
		})
	}
}

// BenchmarkEgoSubgraph isolates neighborhood extraction, the inner loop of
// the node-driven baseline.
func BenchmarkEgoSubgraph(b *testing.B) {
	g := benchUnlabeledGraph(5000)
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.EgoSubgraph(graph.NodeID(i%g.NumNodes()), k)
			}
		})
	}
}

// BenchmarkAblationShortcuts isolates the distance-shortcut
// initialization of Section IV-B2 (no figure in the paper; DESIGN.md
// ablation).
func BenchmarkAblationShortcuts(b *testing.B) {
	g := benchLabeledGraph(2000)
	spec := core.Spec{Pattern: benchClq3(), K: 2}
	with := benchPTOptions(g)
	without := with
	without.DisableShortcuts = true
	b.Run("with-shortcuts", func(b *testing.B) {
		benchCensus(b, g, spec, core.PTOpt, with)
	})
	b.Run("without-shortcuts", func(b *testing.B) {
		benchCensus(b, g, spec, core.PTOpt, without)
	})
}

// BenchmarkParallelWorkers measures the Options.Workers scaling of the
// counting phase. (Speedup requires multiple CPUs; on a single-core
// machine the worker counts should tie, which doubles as an overhead
// check.)
// BenchmarkCensusWorkers — a labeled BA graph, unlabeled triangle, k=1,
// ND-BAS census across worker counts: the workload the bitset/zero-alloc
// acceptance numbers were recorded on. The BA degree
// distribution is heavily skewed, so this also exercises the cost-seeded
// work-stealing schedule.
func BenchmarkCensusWorkers(b *testing.B) {
	g := benchLabeledGraph(1000)
	spec := core.Spec{Pattern: pattern.Clique("clq3-unlb", 3, nil), K: 1}
	for _, w := range []int{1, 2, 4, 8} {
		opt := core.Options{Seed: 1, Workers: w}
		b.Run(fmt.Sprintf("ND-BAS/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			benchCensus(b, g, spec, core.NDBas, opt)
		})
	}
}

func BenchmarkParallelWorkers(b *testing.B) {
	g := benchLabeledGraph(4000)
	spec := core.Spec{Pattern: benchClq3(), K: 2}
	base := benchPTOptions(g)
	for _, w := range []int{1, 2, 4} {
		opt := base
		opt.Workers = w
		b.Run(fmt.Sprintf("PT-OPT/workers=%d", w), func(b *testing.B) {
			benchCensus(b, g, spec, core.PTOpt, opt)
		})
		b.Run(fmt.Sprintf("ND-PVOT/workers=%d", w), func(b *testing.B) {
			benchCensus(b, g, spec, core.NDPvot, opt)
		})
	}
}

// BenchmarkCountMany measures the shared-traversal batch evaluation
// against one census per pattern (an optimization beyond the paper).
func BenchmarkCountMany(b *testing.B) {
	g := benchUnlabeledGraph(2000)
	specs := []core.Spec{
		{Pattern: pattern.SingleNode("n", ""), K: 2},
		{Pattern: pattern.SingleEdge("e", nil), K: 2},
		{Pattern: pattern.Clique("clq3", 3, nil), K: 2},
	}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CountMany(g, specs, core.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				if _, err := core.Count(g, spec, core.NDPvot, core.Options{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkIncremental measures census maintenance per inserted edge on
// preferential-attachment graphs of n nodes, at radius k: a writer
// publishes random edges in batches of 1, 16 and 256, and a Maintainer
// folds each batch in from the published snapshots (the publish is timed
// too). recompute is one full ND-PVOT census of the starting graph.
// floor is the per-epoch cost any batch pays before its first masked CN
// run: a one-edge publish plus the label profiles and hub bitmaps CN
// builds lazily on each fresh snapshot. Maintenance recounts only the
// nodes a batch can change (see DESIGN.md), so at k=2 a small batch costs
// a small fraction of a recount.
func BenchmarkIncremental(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		for _, k := range []int{1, 2} {
			spec := core.Spec{Pattern: pattern.Clique("clq3-unlb", 3, nil), K: k}
			for _, batch := range []int{1, 16, 256} {
				b.Run(fmt.Sprintf("n=%d/k=%d/batch=%d", n, k, batch), func(b *testing.B) {
					rng := rand.New(rand.NewSource(7))
					var w *graph.ShardedWriter
					for i := 0; i < b.N; i++ {
						// A fresh graph every 1 024 edges keeps every batch size
						// measuring the same starting graph, not one grown by b.N.
						if i%1024 == 0 {
							b.StopTimer()
							w = graph.NewShardedWriter(benchUnlabeledGraph(n), 1)
							mt := core.NewMaintainer(w.Snapshot())
							if err := mt.Register("q", spec, core.Options{Seed: 1}); err != nil {
								b.Fatal(err)
							}
							w.Subscribe(func(s *graph.Snapshot, d graph.Delta) {
								if err := mt.Apply(s, d); err != nil {
									b.Error(err)
								}
							})
							b.StartTimer()
						}
						w.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
						if (i+1)%batch == 0 {
							if _, err := w.Publish(); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
			b.Run(fmt.Sprintf("n=%d/k=%d/recompute", n, k), func(b *testing.B) {
				g := benchUnlabeledGraph(n)
				for i := 0; i < b.N; i++ {
					if _, err := core.Count(g, spec, core.NDPvot, core.Options{Seed: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("floor/n=%d", n), func(b *testing.B) {
			w := graph.NewShardedWriter(benchUnlabeledGraph(n), 1)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < b.N; i++ {
				w.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
				s, err := w.Publish()
				if err != nil {
					b.Fatal(err)
				}
				s.Graph().BuildProfiles()
				s.Graph().BuildHubBitmaps()
			}
		})
	}
}
