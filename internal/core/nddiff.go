package core

import (
	"egocensus/internal/graph"
	"egocensus/internal/pattern"
)

// countNDDiff is the differential counting algorithm (Algorithm 3, after
// the GADDI-style shared-neighborhood idea): matches are indexed by every
// anchor node they contain; focal nodes are visited in a
// neighbor-following order, and each node's match set is derived from the
// previous node's by removing matches touching the receding frontier
// (N_k(prev) - N_k(cur)) and adding matches touching the advancing
// frontier (N_k(cur) - N_k(prev)) that are fully contained.
//
// The neighbor-following order decomposes the focal nodes into chains that
// depend only on adjacency, not on the match sets, so the chains are
// carved out first and then processed in parallel across Options.Workers —
// each chain owns disjoint result slots. Within a chain, the current match
// set is an epoch-stamped dense vector and the two live neighborhoods are
// pooled scratch reaches.
//
//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countNDDiff(g *graph.Graph, spec Spec, opt Options, gd *guard) (*Result, error) {
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
	prepare(g)

	// Index every match under each of its (distinct) anchor images.
	index := make([][]int32, g.NumNodes())
	for i, m := range matches {
		for _, a := range matchAnchors(spec, anchorIdx, m) {
			index[a] = append(index[a], int32(i))
		}
	}

	// Decompose the focal list into neighbor-following chains. The
	// successor rule (first unprocessed out-neighbor, then in-neighbor)
	// reproduces the sequential visiting order exactly.
	focal := spec.focalList(g)
	remaining := make([]bool, g.NumNodes())
	for _, n := range focal {
		remaining[n] = true
	}
	var chains [][]graph.NodeID
	for _, start := range focal {
		if !remaining[start] {
			continue
		}
		chain := []graph.NodeID{start}
		remaining[start] = false
		for cur := start; ; {
			next := graph.NodeID(-1)
			for _, nb := range g.OutNeighbors(cur) {
				if remaining[nb] {
					next = nb
					break
				}
			}
			if next < 0 && g.Directed() {
				for _, nb := range g.InNeighbors(cur) {
					if remaining[nb] {
						next = nb
						break
					}
				}
			}
			if next < 0 {
				break
			}
			remaining[next] = false
			chain = append(chain, next)
			cur = next
		}
		chains = append(chains, chain)
	}
	// Chains are the parallel work units; a stop also breaks out of the
	// node loop inside a chain, so long chains stay responsive.
	gd.setFocalTotal(len(focal))

	contained := func(m pattern.Match, reach graph.Reach) bool {
		for _, idx := range anchorIdx {
			if !reach.Contains(m[idx]) {
				return false
			}
		}
		return true
	}

	// Per-worker current-set vectors, epoch-stamped per chain. Workers are
	// identified by the chain-claiming goroutine, so each chain allocates
	// nothing beyond its first use of the pooled scratches.
	workers := opt.workers()
	cur := make([][]int32, workers)
	curEpoch := make([]int32, workers)
	runChain := func(w int, chain []graph.NodeID) {
		if cur[w] == nil {
			cur[w] = make([]int32, len(matches))
		}
		inCur := cur[w]
		sa := graph.AcquireScratch(g.NumNodes())
		sb := graph.AcquireScratch(g.NumNodes())
		defer sa.Release()
		defer sb.Release()

		curEpoch[w]++
		epoch := curEpoch[w]
		if epoch <= 0 { // wraparound
			for i := range inCur {
				inCur[i] = 0
			}
			curEpoch[w] = 1
			epoch = 1
		}
		var count int64
		var prevReach graph.Reach
		havePrev := false
		tk := ticker{gd: gd}
		for ci, n := range chain {
			if gd.stopped() {
				return
			}
			s := sa
			if ci%2 == 1 {
				s = sb
			}
			reach := g.KHop(n, spec.K, s)
			if !havePrev {
				for _, nb := range reach.Nodes {
					if tk.tick() != nil {
						return
					}
					for _, mi := range index[nb] {
						if inCur[mi] != epoch && contained(matches[mi], reach) {
							inCur[mi] = epoch
							count++
						}
					}
				}
			} else {
				// Remove matches touching N2 = N_k(prev) - N_k(cur).
				for _, nb := range prevReach.Nodes {
					if tk.tick() != nil {
						return
					}
					if reach.Contains(nb) {
						continue
					}
					for _, mi := range index[nb] {
						if inCur[mi] == epoch {
							inCur[mi] = 0
							count--
						}
					}
				}
				// Add matches touching N1 = N_k(cur) - N_k(prev).
				for _, nb := range reach.Nodes {
					if tk.tick() != nil {
						return
					}
					if prevReach.Contains(nb) {
						continue
					}
					for _, mi := range index[nb] {
						if inCur[mi] != epoch && contained(matches[mi], reach) {
							inCur[mi] = epoch
							count++
						}
					}
				}
			}
			res.Counts[n] = count
			gd.focalTick()
			prevReach = reach
			havePrev = true
		}
	}

	if workers <= 1 || len(chains) == 1 {
		for _, chain := range chains {
			if gd.check() != nil {
				break
			}
			runChain(0, chain)
		}
		return res, gd.failure(res, nil)
	}
	// Chain cost for the work-stealing schedule: each node in a chain
	// pays one k-hop frontier diff proportional to its degree.
	chainCost := func(i int) int64 {
		c := int64(0)
		for _, n := range chains[i] {
			c += 1 + int64(g.Degree(n))
		}
		return c
	}
	parallelFor(gd, workers, len(chains), chainCost, func(w, i int) {
		runChain(w, chains[i])
	})
	return res, gd.failure(res, nil)
}
