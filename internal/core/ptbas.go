package core

import (
	"egocensus/internal/graph"
)

// countPTBas is the pattern-driven baseline (Section IV-B): process every
// match independently; BFS the k-hop neighborhood of each anchor node,
// start from the anchor with the fewest k-hop neighbors, and keep the
// nodes reachable within k hops from every other anchor. Matches are
// processed in parallel across Options.Workers with per-worker count
// vectors merged at the end (int64 sums are order-invariant, so parallel
// results equal sequential ones exactly).
//
//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countPTBas(g *graph.Graph, spec Spec, opt Options, gd *guard) (*Result, error) {
	res := &Result{Counts: make([]int64, g.NumNodes())}
	gd.chargeMem(int64(g.NumNodes()) * 8)
	matches, embs, err := globalMatchesGuarded(g, spec, opt, gd)
	if err != nil {
		return nil, err
	}
	res.NumMatches, res.Embeddings = len(matches), embs
	if len(matches) == 0 {
		return res, nil
	}
	anchorIdx := spec.anchorNodes()
	focal := spec.focalSet(g)
	prepare(g)

	maxAnchors := len(anchorIdx)
	gd.setFocalTotal(len(matches))
	// Match cost for the work-stealing schedule: one BFS per anchor,
	// each seeded by the anchor image's degree.
	matchCost := func(mi int) int64 {
		c := int64(0)
		for _, idx := range anchorIdx {
			c += 1 + int64(g.Degree(matches[mi][idx]))
		}
		return c
	}
	parallelMerge(gd, opt.workers(), len(matches), matchCost, res.Counts, func(w int, counts []int64, mi int) {
		m := matches[mi]
		anchors := matchAnchors(spec, anchorIdx, m)
		// One BFS per anchor; may re-traverse shared edges — that is the
		// inefficiency simultaneous traversal removes. Each reach needs its
		// own scratch because all stay live for the intersection.
		scratches := make([]*graph.Scratch, 0, maxAnchors)
		reaches := make([]graph.Reach, 0, maxAnchors)
		minIdx := 0
		for i, a := range anchors {
			s := graph.AcquireScratch(g.NumNodes())
			scratches = append(scratches, s)
			reaches = append(reaches, g.KHop(a, spec.K, s))
			if reaches[i].Len() < reaches[minIdx].Len() {
				minIdx = i
			}
		}
		tk := ticker{gd: gd}
		for _, n := range reaches[minIdx].Nodes {
			if tk.tick() != nil {
				break
			}
			inAll := true
			for i := range reaches {
				if i == minIdx {
					continue
				}
				if !reaches[i].Contains(n) {
					inAll = false
					break
				}
			}
			if !inAll {
				continue
			}
			if focal != nil && !focal[n] {
				continue
			}
			counts[n]++
		}
		for _, s := range scratches {
			s.Release()
		}
	})
	return res, gd.failure(res, nil)
}
