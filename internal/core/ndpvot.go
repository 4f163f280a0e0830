package core

import (
	"egocensus/internal/graph"
	"egocensus/internal/pattern"
)

// buildPMI builds a pattern match index for a designated pattern node v: a
// dense per-graph-node table mapping n' to the indices of the matches in
// which n' is the image of v (Section IV-A1).
func buildPMI(numNodes int, matches []pattern.Match, pivot int) [][]int32 {
	idx := make([][]int32, numNodes)
	for i, m := range matches {
		n := m[pivot]
		idx[n] = append(idx[n], int32(i))
	}
	return idx
}

// countNDPvot is the pivot indexing algorithm (Algorithm 2): find all
// matches once, index them by the image of an eccentricity-minimizing
// pivot node, then BFS each focal node's neighborhood and count index
// buckets — skipping containment checks whenever the triangle inequality
// through the pivot already guarantees containment, and otherwise checking
// only the pattern nodes that are distant enough from the pivot to be able
// to escape the neighborhood. Focal nodes are processed in parallel across
// Options.Workers; each owns a disjoint result slot.
//
//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countNDPvot(g *graph.Graph, spec Spec, opt Options, gd *guard) (*Result, error) {
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

	p := spec.Pattern
	anchorIdx := spec.anchorNodes()
	prepare(g)

	// Pivot selection restricted to the anchor (subpattern) nodes, with
	// eccentricity measured over the anchors (the only nodes whose
	// containment matters).
	dist := p.Distances()
	pivot, maxV := -1, int(^uint(0)>>1)
	for _, x := range anchorIdx {
		ecc := 0
		for _, y := range anchorIdx {
			if dist[x][y] > ecc {
				ecc = dist[x][y]
			}
		}
		if ecc < maxV {
			pivot, maxV = x, ecc
		}
	}

	// distant[i] = anchor nodes u with d(pivot, u) >= i: the nodes that
	// require an explicit containment check when k - d(n, n') = i - 1.
	distant := make([][]int, maxV+2)
	for _, u := range anchorIdx {
		for i := 1; i <= maxV; i++ {
			if dist[pivot][u] >= i {
				distant[i] = append(distant[i], u)
			}
		}
	}

	index := buildPMI(g.NumNodes(), matches, pivot)

	// Focal nodes are disjoint result slots, so workers write directly.
	focal := spec.focalList(g)
	gd.setFocalTotal(len(focal))
	focalCost := func(i int) int64 { return 1 + int64(g.Degree(focal[i])) }
	parallelForCostAff(gd, opt.workers(), len(focal), focalCost, opt.focalAffinity(focal), func(fi int) {
		n := focal[fi]
		s := graph.AcquireScratch(g.NumNodes())
		defer s.Release()
		reach := g.KHop(n, spec.K, s)
		var count int64
		tk := ticker{gd: gd}
		for _, nPrime := range reach.Nodes {
			if tk.tick() != nil {
				return
			}
			bucket := index[nPrime]
			if len(bucket) == 0 {
				continue
			}
			d := int(reach.Dist(nPrime))
			if d+maxV <= spec.K {
				// Containment guaranteed: d(n, mu(u)) <= d + d(pivot, u)
				// <= d + maxV <= k for every anchor u.
				count += int64(len(bucket))
				continue
			}
			// Only anchors with d(pivot, u) > k - d can escape S(n, k).
			checkIdx := spec.K - d + 1
			if checkIdx < 1 {
				checkIdx = 1
			}
			if checkIdx >= len(distant) {
				checkIdx = len(distant) - 1
			}
			toCheck := distant[checkIdx]
			for _, mi := range bucket {
				m := matches[mi]
				inside := true
				for _, u := range toCheck {
					if !reach.Contains(m[u]) {
						inside = false
						break
					}
				}
				if inside {
					count++
				}
			}
		}
		res.Counts[n] = count
	})
	return res, gd.failure(res, nil)
}
