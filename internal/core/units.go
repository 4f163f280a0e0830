package core

import (
	"cmp"
	"slices"

	"egocensus/internal/graph"
)

// units lists the focal units of a node-driven census, each owning one
// count slot. A single-node census has the focal nodes, slot = node ID,
// reach N_k(n). A pairwise census has the distinct listed pairs, slot =
// list position, and reach the pair's combined neighborhood (Appendix B):
// N_k(a) ∪ N_k(b) at the nearer distance, one two-source traversal, or
// N_k(a) ∩ N_k(b) at the farther one, graph.Reach.Intersect. nodes is
// nil exactly for a pair census.
type units struct {
	k     int
	nodes []graph.NodeID
	pairs []Pair
	union bool
}

// focalUnits lists a single-node census's focal nodes.
func focalUnits(g *graph.Graph, spec Spec) units {
	return units{k: spec.K, nodes: spec.focalList(g)}
}

// pairUnits lists a pairwise census's distinct pairs in canonical order.
func pairUnits(spec PairSpec) units {
	return units{k: spec.K, pairs: canonicalPairs(spec.Pairs), union: spec.Mode == Union}
}

// canonicalPairs returns the distinct pairs of ps in canonical form,
// sorted by (A, B): a pair listed twice, in either order, appears once.
func canonicalPairs(ps []Pair) []Pair {
	out := make([]Pair, len(ps))
	for i, pr := range ps {
		out[i] = MakePair(pr.A, pr.B)
	}
	slices.SortFunc(out, func(x, y Pair) int { return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B)) })
	return slices.Compact(out)
}

func (us units) len() int { return len(us.nodes) + len(us.pairs) }

// slots is the length of a count vector with one slot per unit: the node
// count for a single-node census, as Result.Counts requires.
func (us units) slots(g *graph.Graph) int {
	if us.nodes == nil {
		return len(us.pairs)
	}
	return g.NumNodes()
}

// each runs body(w, slot, reach) for every unit on the pool: across the
// workers, hubs first (a unit costs its nodes' degrees), under gd's
// checks and focal progress. w is the executing worker, for per-worker
// state; reach is valid only during the call.
func (us units) each(g *graph.Graph, workers int, gd *guard, body func(w, slot int, reach graph.Reach)) {
	gd.setFocalTotal(us.len())
	cost := func(i int) int64 {
		if us.nodes != nil {
			return 1 + int64(g.Degree(us.nodes[i]))
		}
		return 1 + int64(g.Degree(us.pairs[i].A)) + int64(g.Degree(us.pairs[i].B))
	}
	parallelFor(gd, workers, us.len(), cost, func(w, i int) {
		s := graph.AcquireScratch(g.NumNodes())
		defer s.Release()
		if us.nodes != nil {
			body(w, int(us.nodes[i]), g.KHop(us.nodes[i], us.k, s))
			return
		}
		pr := us.pairs[i]
		if us.union {
			body(w, i, g.KHopFrom([]graph.NodeID{pr.A, pr.B}, us.k, s))
			return
		}
		sb := graph.AcquireScratch(g.NumNodes())
		defer sb.Release()
		body(w, i, g.KHop(pr.A, us.k, s).Intersect(g.KHop(pr.B, us.k, sb)))
	})
}
