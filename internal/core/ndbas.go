package core

import (
	"egocensus/internal/graph"
	"egocensus/internal/match"
)

// countNDBas is the node-driven baseline (Section IV-A): match the pattern
// inside every unit's reach — S(n, k) for a focal node, the combined
// neighborhood for a pair — into the unit's count slot. It repeats
// overlapping work across neighborhoods and is computationally infeasible
// beyond small graphs — the paper reports 218x slower than ND-PVOT at 20K
// nodes — but it is the semantic reference the other algorithms are
// validated against.
//
// The per-unit matching is a CN counting run in place on the parent graph
// restricted to the reach, so no subgraph is ever extracted. Units are
// processed in parallel across Options.Workers — each owns a disjoint
// count slot, so workers write counts directly.
//
// Cancellation is checked before every unit and, through CN's stop poll,
// inside each per-unit enumeration; on a stop the counts written so far
// are the partial census.
//
// COUNTSP censuses cannot be answered inside the neighborhood (the pattern
// may extend beyond it while only the subpattern image must lie inside),
// so for those the baseline degrades to the naive global scheme the paper
// describes as the starting point of pivot indexing: match globally, then
// containment-check every match against every unit (countNDBasSubpattern).
//
//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countNDBas(g *graph.Graph, spec Spec, us units, opt Options, gd *guard) (*Result, error) {
	if spec.Subpattern != "" {
		return countNDBasSubpattern(g, spec, us, opt, gd)
	}
	res := &Result{Counts: make([]int64, us.slots(g))}
	gd.chargeMem(int64(len(res.Counts)) * 8)
	cn := match.CN{Stop: gd.stopFunc()}
	prepare(g)
	// Zero-allocation hot path: one reusable counting run per worker;
	// candidate planes, CN arenas, and the distinct-key set all live in
	// the run and are reused across units. The reach mask is also
	// per-worker — a pointer to the body's own reach would escape and put
	// one heap allocation back per unit.
	workers := opt.workers()
	runs := make([]*match.CountRun, workers)
	masks := make([]*graph.Reach, workers)
	us.each(g, workers, gd, func(w, slot int, reach graph.Reach) {
		run := runs[w]
		if run == nil {
			run = cn.NewCountRun()
			runs[w] = run
			masks[w] = new(graph.Reach)
		}
		mask := masks[w]
		*mask = reach
		distinct, _ := run.CountWithin(g, spec.Pattern, mask, nil)
		res.Counts[slot] = int64(distinct)
	})
	return res, gd.failure(res, nil)
}

// countNDBasSubpattern is the naive O(|units| * |M| * |V_SP|) scheme: every
// global match whose anchor images all lie in a unit's reach counts for
// that unit. It reads only the CSR, through the traversals.
func countNDBasSubpattern(g *graph.Graph, spec Spec, us units, opt Options, gd *guard) (*Result, error) {
	res := &Result{Counts: make([]int64, us.slots(g))}
	gd.chargeMem(int64(len(res.Counts)) * 8)
	matches, embs, err := globalMatchesGuarded(g, spec, opt, gd)
	if err != nil {
		return nil, err
	}
	res.NumMatches, res.Embeddings = len(matches), embs
	anchorIdx := spec.anchorNodes()
	g.BuildCSR()
	us.each(g, opt.workers(), gd, func(_, slot int, reach graph.Reach) {
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
		res.Counts[slot] = count
	})
	return res, gd.failure(res, nil)
}
