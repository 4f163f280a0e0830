package core

import (
	"slices"

	"egocensus/internal/graph"
	"egocensus/internal/pattern"
)

// pivotIndex is the pattern match index of ND-PVOT (Algorithm 2, Section
// IV-A1): the global match set bucketed by the image of an
// eccentricity-minimizing anchor pivot. countNDPvot (one or several specs
// sharing one BFS per focal node, the latter for CountMany), pairwise
// ND-PVOT and the Maintainer count through it, in countPivots. The
// Maintainer keeps one index across batches and patches it with add and
// remove.
type pivotIndex struct {
	matches []pattern.Match
	// pmi[n'] lists the indices of the counted matches mapping the pivot
	// to n'; a removed match stays in matches but leaves its bucket.
	pmi [][]int32
	// pivot is the pattern node whose image buckets the matches.
	pivot int
	// maxV is the pivot's eccentricity over the anchors.
	maxV int
	// distant[i] lists the anchors u with d(pivot, u) >= i: the ones that
	// can escape the neighborhood when its radius minus d(n, n') is i - 1.
	distant [][]int
}

// newPivotIndex indexes a match set of spec over a graph with numNodes
// nodes. The pivot is chosen among the anchor (subpattern) nodes, with
// eccentricity measured over the anchors: only their containment matters.
func newPivotIndex(numNodes int, spec Spec, matches []pattern.Match) *pivotIndex {
	anchors := spec.anchorNodes()
	pivot, maxV := spec.Pattern.Pivot(anchors)
	dist := spec.Pattern.Distances()[pivot]
	ix := &pivotIndex{matches: matches, pmi: make([][]int32, numNodes), pivot: pivot, maxV: maxV, distant: make([][]int, maxV+1)}
	for _, u := range anchors {
		for i := 1; i <= dist[u]; i++ {
			ix.distant[i] = append(ix.distant[i], u)
		}
	}
	for i, m := range matches {
		ix.pmi[m[pivot]] = append(ix.pmi[m[pivot]], int32(i))
	}
	return ix
}

// add appends m to the index, counted, and returns its position in
// matches. pmi must cover m's pivot image.
func (ix *pivotIndex) add(m pattern.Match) int {
	mi := len(ix.matches)
	ix.matches = append(ix.matches, m)
	ix.pmi[m[ix.pivot]] = append(ix.pmi[m[ix.pivot]], int32(mi))
	return mi
}

// remove stops counting match mi. It stays in matches, so every position
// handed out by add stays valid.
func (ix *pivotIndex) remove(mi int) {
	n := ix.matches[mi][ix.pivot]
	ix.pmi[n] = slices.DeleteFunc(ix.pmi[n], func(i int32) bool { return i == int32(mi) })
}

// check returns the anchors whose images must be containment-checked for
// the bucket of a node at distance d <= k from the focal node, or all when
// the triangle inequality through the pivot already places the whole
// bucket inside: d(n, mu(u)) <= d + d(pivot, u) <= d + maxV <= k. Otherwise
// only anchors with d(pivot, u) > k - d can escape S(n, k).
func (ix *pivotIndex) check(d, k int) (anchors []int, all bool) {
	if d+ix.maxV <= k {
		return nil, true
	}
	return ix.distant[k-d+1], false
}

// count returns the number of indexed matches whose anchor images all lie
// in reach, one unit's neighborhood of radius k. A stop observed by tk
// returns its error and no count.
func (ix *pivotIndex) count(reach graph.Reach, k int, tk *ticker) (int64, error) {
	var count int64
	for _, nPrime := range reach.Nodes {
		if err := tk.tick(); err != nil {
			return 0, err
		}
		bucket := ix.pmi[nPrime]
		if len(bucket) == 0 {
			continue
		}
		toCheck, all := ix.check(int(reach.Dist(nPrime)), k)
		if all {
			count += int64(len(bucket))
			continue
		}
	next:
		for _, mi := range bucket {
			m := ix.matches[mi]
			for _, u := range toCheck {
				if !reach.Contains(m[u]) {
					continue next
				}
			}
			count++
		}
	}
	return count, nil
}

// countNDPvot is the pivot indexing algorithm (Algorithm 2) over specs
// sharing one radius and unit list: find each spec's matches once and
// index them by pivot image (pivotIndex), then traverse each unit's
// neighborhood once and count every index against it — skipping
// containment checks whenever the triangle inequality through the pivot
// already guarantees containment. Units are processed in parallel across
// Options.Workers; each owns a disjoint result slot, and one stopped by
// the guard keeps 0. The typed error carries the first spec's partial
// census.
//
//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countNDPvot(g *graph.Graph, specs []Spec, us units, opt Options, gd *guard) ([]*Result, error) {
	results := make([]*Result, len(specs))
	indexes := make([]*pivotIndex, len(specs))
	indexed := false
	for i, spec := range specs {
		gd.chargeMem(int64(us.slots(g)) * 8)
		matches, embs, err := globalMatchesGuarded(g, spec, opt, gd)
		if err != nil {
			return nil, err
		}
		results[i] = &Result{Counts: make([]int64, us.slots(g)), NumMatches: len(matches), Embeddings: embs}
		if len(matches) > 0 {
			indexes[i], indexed = newPivotIndex(g.NumNodes(), spec, matches), true
		}
	}
	if !indexed {
		return results, nil
	}
	counts := make([][]int64, len(results))
	for i, r := range results {
		counts[i] = r.Counts
	}
	countPivots(g, us, indexes, counts, opt, gd)
	return results, gd.failure(results[0], nil)
}

// countPivots counts every pivot index (nil ones are skipped) against
// each unit's reach, one shared traversal per unit, into the index's count
// vector at the unit's slot. The reach distance is d(n, n') for a focal
// node and, for a pair, the max (∩) or min (∪) of the two (Appendix B).
// Units are processed in parallel across opt.Workers; each owns a
// disjoint slot, and one stopped by the guard keeps 0. The count reads
// only the CSR, through the traversals.
//
//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countPivots(g *graph.Graph, us units, indexes []*pivotIndex, counts [][]int64, opt Options, gd *guard) {
	g.BuildCSR()
	us.each(g, opt.workers(), gd, func(_, slot int, reach graph.Reach) {
		tk := ticker{gd: gd}
		for i, ix := range indexes {
			if ix == nil {
				continue
			}
			count, err := ix.count(reach, us.k, &tk)
			if err != nil {
				return
			}
			counts[i][slot] = count
		}
	})
}
