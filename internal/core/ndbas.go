package core

import (
	"egocensus/internal/graph"
	"egocensus/internal/match"
)

// countNDBas is the node-driven baseline (Section IV-A): match the pattern
// inside S(n, k) for every focal node. It repeats overlapping work across
// neighborhoods and is computationally infeasible beyond small graphs —
// the paper reports 218x slower than ND-PVOT at 20K nodes — but it is the
// semantic reference the other algorithms are validated against.
//
// The per-node matching is a CN counting run in place on the parent graph
// restricted to the k-hop reach, so no subgraph is ever extracted. Focal
// nodes are processed in parallel across Options.Workers — each owns a
// disjoint result slot, so workers write counts directly.
//
// Cancellation is checked before every focal node and, through CN's stop
// poll, inside each per-node enumeration; on a stop the counts written so
// far are returned as the partial census.
//
// COUNTSP censuses cannot be answered inside the neighborhood (the pattern
// may extend beyond it while only the subpattern image must lie inside),
// so for those the baseline degrades to the naive global scheme the paper
// describes as the starting point of pivot indexing: match globally, then
// containment-check every match against every focal node.
//
//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countNDBas(g *graph.Graph, spec Spec, opt Options, gd *guard) (*Result, error) {
	if spec.Subpattern != "" {
		return countNDBasSubpattern(g, spec, opt, gd)
	}
	res := &Result{Counts: make([]int64, g.NumNodes())}
	gd.chargeMem(int64(g.NumNodes()) * 8)
	cn := match.CN{Stop: gd.stopFunc()}
	focal := spec.focalList(g)
	gd.setFocalTotal(len(focal))
	prepare(g)
	// Per-focal cost estimate for the work-stealing schedule: the k-hop
	// BFS and the in-neighborhood matching both scale with the focal's
	// degree, so hubs sort to the front of the deques.
	focalCost := func(i int) int64 { return 1 + int64(g.Degree(focal[i])) }

	// Zero-allocation hot path: one reusable counting run per worker;
	// candidate planes, CN arenas, and the distinct-key set all live in
	// the run and are reused across focals. The reach mask is also
	// per-worker — passing the Reach value itself would box it into the
	// NodeSet interface and put one heap allocation back per focal.
	workers := opt.workers()
	runs := make([]*match.CountRun, workers)
	masks := make([]*reachMask, workers)
	parallelFor(gd, workers, len(focal), focalCost, func(w, i int) {
		run := runs[w]
		if run == nil {
			run = cn.NewCountRun()
			runs[w] = run
			masks[w] = new(reachMask)
		}
		n := focal[i]
		s := graph.AcquireScratch(g.NumNodes())
		mask := masks[w]
		mask.r = g.KHop(n, spec.K, s)
		distinct, _ := run.CountWithin(g, spec.Pattern, mask, nil)
		res.Counts[n] = int64(distinct)
		s.Release()
	})
	return res, gd.failure(res, nil)
}

// reachMask adapts a graph.Reach to match.NodeSet behind a reusable
// pointer, so the per-focal masked count does not re-box the reach value.
type reachMask struct{ r graph.Reach }

func (m *reachMask) Contains(n graph.NodeID) bool { return m.r.Contains(n) }
func (m *reachMask) Members() []graph.NodeID      { return m.r.Nodes }

// countNDBasSubpattern is the naive O(|V_sigma| * |M| * |V_SP|) scheme.
func countNDBasSubpattern(g *graph.Graph, spec Spec, opt Options, gd *guard) (*Result, error) {
	res := &Result{Counts: make([]int64, g.NumNodes())}
	gd.chargeMem(int64(g.NumNodes()) * 8)
	matches, embs, err := globalMatchesGuarded(g, spec, opt, gd)
	if err != nil {
		return nil, err
	}
	res.NumMatches, res.Embeddings = len(matches), embs
	anchorIdx := spec.anchorNodes()
	focal := spec.focalList(g)
	gd.setFocalTotal(len(focal))
	prepare(g)
	focalCost := func(i int) int64 { return 1 + int64(g.Degree(focal[i])) }
	parallelFor(gd, opt.workers(), len(focal), focalCost, func(w, i int) {
		n := focal[i]
		s := graph.AcquireScratch(g.NumNodes())
		reach := g.KHop(n, spec.K, s)
		var count int64
		tk := ticker{gd: gd}
		for _, m := range matches {
			if tk.tick() != nil {
				break
			}
			inside := true
			for _, idx := range anchorIdx {
				if !reach.Contains(m[idx]) {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
		res.Counts[n] = count
		s.Release()
	})
	return res, gd.failure(res, nil)
}
