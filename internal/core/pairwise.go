package core

import (
	"context"
	"fmt"
	"math/rand"

	"egocensus/internal/graph"
	"egocensus/internal/match"
)

// PairMode selects the pairwise neighborhood combinator.
type PairMode int

const (
	// Intersection censuses SUBGRAPH-INTERSECTION(n1, n2, k).
	Intersection PairMode = iota
	// Union censuses SUBGRAPH-UNION(n1, n2, k).
	Union
)

// String renders the mode in query syntax.
func (m PairMode) String() string {
	if m == Union {
		return "SUBGRAPH-UNION"
	}
	return "SUBGRAPH-INTERSECTION"
}

// Pair is an unordered node pair in canonical (A < B) order.
type Pair struct {
	A, B graph.NodeID
}

// MakePair returns the canonical form of a pair.
func MakePair(a, b graph.NodeID) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// PairSpec describes a pairwise census:
// COUNTP(pattern, SUBGRAPH-INTERSECTION/UNION(n1, n2, k)).
type PairSpec struct {
	Spec
	Mode PairMode
	// Pairs restricts the census to these pairs; nil means all pairs with
	// a non-zero count (pattern-driven evaluation naturally produces
	// exactly those).
	Pairs []Pair
}

// Validate checks the pair spec against the graph: the embedded Spec, the
// combinator, and both ends of every listed pair.
func (s PairSpec) Validate(g *graph.Graph) error {
	if err := s.Spec.Validate(g); err != nil {
		return err
	}
	if s.Mode != Intersection && s.Mode != Union {
		return fmt.Errorf("census: unknown pair mode %d", s.Mode)
	}
	for _, pr := range s.Pairs {
		for _, n := range [2]graph.NodeID{pr.A, pr.B} {
			if n < 0 || int(n) >= g.NumNodes() {
				return fmt.Errorf("census: pair node %d out of range", n)
			}
		}
	}
	return nil
}

// PairResult maps pairs to counts. Pairs absent from the map have count 0.
type PairResult struct {
	Counts     map[Pair]int64
	NumMatches int
	// Embeddings is the global match's emitted embedding count, as in
	// Result.
	Embeddings int
}

// CountPairs evaluates a pairwise census. Pattern-driven algorithms
// (PT-BAS, PT-OPT, PT-RND share the per-match neighborhood machinery)
// report every pair with a non-zero count; node-driven algorithms (ND-BAS,
// ND-PVOT) require an explicit pair list.
func CountPairs(g *graph.Graph, spec PairSpec, alg Algorithm, opt Options) (*PairResult, error) {
	return CountPairsContext(context.Background(), g, spec, alg, opt) //egolint:allow ctxflow sanctioned root: public non-Context convenience wrapper; cancellation-aware callers use the Context variant
}

// CountPairsContext is CountPairs under a context: cancellation and the
// limits in opt.Limits stop evaluation within a bounded interval, surfacing
// as a *CanceledError or *LimitError carrying the partial pair counts.
func CountPairsContext(ctx context.Context, g *graph.Graph, spec PairSpec, alg Algorithm, opt Options) (*PairResult, error) {
	if err := spec.Validate(g); err != nil {
		return nil, err
	}
	gd, cancel := newGuard(ctx, opt.Limits)
	defer cancel()
	return countPairsGuarded(g, spec, alg, opt, gd)
}

// countPairsGuarded dispatches to the pairwise drivers under an existing
// guard.
//
//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countPairsGuarded(g *graph.Graph, spec PairSpec, alg Algorithm, opt Options, gd *guard) (*PairResult, error) {
	switch alg {
	case NDBas:
		return pairNDBas(g, spec, opt, gd)
	case NDPvot:
		return pairNDPvot(g, spec, opt, gd)
	case PTBas:
		return pairPTDriven(g, spec, opt, gd)
	case PTOpt:
		return pairPTOpt(g, spec, opt, false, gd)
	case PTRnd:
		return pairPTOpt(g, spec, opt, true, gd)
	default:
		return nil, fmt.Errorf("census: algorithm %q does not support pairwise censuses", alg)
	}
}

// pairAdder builds the shared pair-emission closure: it filters against the
// requested pair list, charges each newly materialized pair as one result
// row, and accumulates counts. Emission loops poll gd.stopped() so the
// O(pairs) phases wind down within one epoch of a stop.
func pairAdder(res *PairResult, spec PairSpec, gd *guard) func(a, b graph.NodeID, c int64) {
	var wanted map[Pair]bool
	if spec.Pairs != nil {
		wanted = make(map[Pair]bool, len(spec.Pairs))
		for _, pr := range spec.Pairs {
			wanted[MakePair(pr.A, pr.B)] = true
		}
	}
	tk := &ticker{gd: gd}
	return func(a, b graph.NodeID, c int64) {
		tk.tick() // runs the full check once per epoch, raising the flag
		pr := MakePair(a, b)
		if wanted != nil && !wanted[pr] {
			return
		}
		if _, ok := res.Counts[pr]; !ok {
			if gd.chargeRows(1) != nil {
				return
			}
			// ~48 bytes per map entry (key + value + bucket overhead).
			gd.chargeMem(48)
		}
		res.Counts[pr] += c
	}
}

// pairNDBas matches inside the intersection/union neighborhood of each
// pair — the reference semantics (COUNTP only; COUNTSP censuses fall back
// to global matching plus containment checks). A CN counting run counts
// in place on g with the pair's combined reach as the mask, as countNDBas
// does.
func pairNDBas(g *graph.Graph, spec PairSpec, opt Options, gd *guard) (*PairResult, error) {
	if spec.Pairs == nil {
		return nil, fmt.Errorf("census: ND-BAS pairwise requires an explicit pair list")
	}
	if spec.Subpattern != "" {
		return pairNDContainment(g, spec, opt, gd)
	}
	res := &PairResult{Counts: make(map[Pair]int64, len(spec.Pairs))}
	run := match.CN{Stop: gd.stopFunc()}.NewCountRun()
	return countListedPairs(g, spec, gd, res, func(mask *pairMask) int64 {
		if len(mask.nodes) == 0 {
			return 0
		}
		d, _ := run.CountWithin(g, spec.Pattern, mask, nil)
		return int64(d)
	})
}

// countListedPairs is the pair loop of the node-driven pair drivers: it
// builds the combined neighborhood of each distinct listed pair, calls
// count on it, and records the non-zero counts, charging one result row
// per recorded pair. A pair listed twice, in either order, is counted and
// charged once.
func countListedPairs(g *graph.Graph, spec PairSpec, gd *guard, res *PairResult, count func(mask *pairMask) int64) (*PairResult, error) {
	pairs := make([]Pair, 0, len(spec.Pairs))
	seen := make(map[Pair]bool, len(spec.Pairs))
	for _, pr := range spec.Pairs {
		pr = MakePair(pr.A, pr.B)
		if !seen[pr] {
			seen[pr] = true
			pairs = append(pairs, pr)
		}
	}
	gd.setFocalTotal(len(pairs))
	sa := graph.AcquireScratch(g.NumNodes())
	sb := graph.AcquireScratch(g.NumNodes())
	defer sa.Release()
	defer sb.Release()
	mask := new(pairMask)
	for _, pr := range pairs {
		if gd.check() != nil {
			break
		}
		mask.set(g.KHop(pr.A, spec.K, sa), g.KHop(pr.B, spec.K, sb), spec.Mode == Union)
		if c := count(mask); c > 0 {
			if gd.chargeRows(1) != nil {
				break
			}
			res.Counts[pr] = c
		}
		gd.focalTick()
	}
	return res, gd.failure(nil, res)
}

// pairMask is a pair's combined neighborhood, N_k(a) ∩ N_k(b) or
// N_k(a) ∪ N_k(b), as a match.NodeSet over the parent graph — the node
// set EgoIntersection/EgoUnion would extract.
type pairMask struct {
	a, b  graph.Reach
	union bool
	nodes []graph.NodeID
}

func (m *pairMask) set(a, b graph.Reach, union bool) {
	m.a, m.b, m.union = a, b, union
	m.nodes = m.nodes[:0]
	if union {
		m.nodes = append(m.nodes, a.Nodes...)
	}
	for _, n := range b.Nodes {
		if a.Contains(n) != union {
			m.nodes = append(m.nodes, n)
		}
	}
}

func (m *pairMask) Contains(n graph.NodeID) bool {
	if m.union {
		return m.a.Contains(n) || m.b.Contains(n)
	}
	return m.a.Contains(n) && m.b.Contains(n)
}

func (m *pairMask) Members() []graph.NodeID { return m.nodes }

// dist is the distance ND-PVOT's triangle inequality starts from for a
// member n: n must be near both sources of an intersection, so the larger
// of its two BFS distances, and near either source of a union, so the
// smaller one it has.
func (m *pairMask) dist(n graph.NodeID) int {
	da, db := m.a.Dist(n), m.b.Dist(n)
	if !m.union {
		return int(max(da, db))
	}
	if da < 0 || (db >= 0 && db < da) {
		return int(db)
	}
	return int(da)
}

// pairNDContainment matches globally and containment-checks each anchor
// image against the combined neighborhood of each pair.
func pairNDContainment(g *graph.Graph, spec PairSpec, opt Options, gd *guard) (*PairResult, error) {
	res := &PairResult{Counts: make(map[Pair]int64, len(spec.Pairs))}
	matches, embs, err := globalMatchesGuarded(g, spec.Spec, opt, gd)
	if err != nil {
		return nil, err
	}
	res.NumMatches, res.Embeddings = len(matches), embs
	anchorIdx := spec.anchorNodes()
	tk := ticker{gd: gd}
	return countListedPairs(g, spec, gd, res, func(mask *pairMask) int64 {
		var count int64
	next:
		for _, m := range matches {
			if tk.tick() != nil {
				break
			}
			for _, idx := range anchorIdx {
				if !mask.Contains(m[idx]) {
					continue next
				}
			}
			count++
		}
		return count
	})
}

// pairNDPvot adapts the pivot indexing algorithm to pairs (Appendix B):
// the traversal set becomes the pair's combined neighborhood (pairMask),
// and d(n, n') becomes pairMask.dist, the max of the two BFS distances for
// intersections and the min for unions; the pivotIndex decides the rest.
func pairNDPvot(g *graph.Graph, spec PairSpec, opt Options, gd *guard) (*PairResult, error) {
	if spec.Pairs == nil {
		return nil, fmt.Errorf("census: ND-PVOT pairwise requires an explicit pair list")
	}
	res := &PairResult{Counts: make(map[Pair]int64, len(spec.Pairs))}
	matches, embs, err := globalMatchesGuarded(g, spec.Spec, opt, gd)
	if err != nil {
		return nil, err
	}
	res.NumMatches, res.Embeddings = len(matches), embs
	if len(matches) == 0 {
		return res, nil
	}
	ix := newPivotIndex(g.NumNodes(), spec.Spec, matches)
	tk := ticker{gd: gd}
	return countListedPairs(g, spec, gd, res, func(mask *pairMask) int64 {
		var count int64
		for _, nPrime := range mask.nodes {
			if tk.tick() != nil {
				break
			}
			bucket := ix.pmi[nPrime]
			if len(bucket) == 0 {
				continue
			}
			toCheck, all := ix.check(mask.dist(nPrime), spec.K)
			if all {
				count += int64(len(bucket))
				continue
			}
		next:
			for _, mi := range bucket {
				m := ix.matches[mi]
				for _, u := range toCheck {
					if !mask.Contains(m[u]) {
						continue next
					}
				}
				count++
			}
		}
		return count
	})
}

// pairPTOpt is the optimized pattern-driven pairwise evaluator: matches
// are clustered exactly as in the single-node PT-OPT, each cluster runs one
// simultaneous traversal producing per-node anchor-distance vectors, and
// pairs are emitted per match from those shared vectors (Appendix B).
func pairPTOpt(g *graph.Graph, spec PairSpec, opt Options, randomOrder bool, gd *guard) (*PairResult, error) {
	res := &PairResult{Counts: make(map[Pair]int64)}
	matches, embs, err := globalMatchesGuarded(g, spec.Spec, opt, gd)
	if err != nil {
		return nil, err
	}
	res.NumMatches, res.Embeddings = len(matches), embs
	if len(matches) == 0 {
		return res, nil
	}
	anchorIdx := spec.anchorNodes()

	pmdCenters, clusterCenters := resolveCenters(g, opt)
	clusters := clusterMatches(g, spec.Spec, opt, matches, anchorIdx, clusterCenters, gd)
	pdist := spec.Pattern.Distances()
	tr := &traversal{
		g:           g,
		k:           spec.K,
		pmdCenters:  pmdCenters,
		randomOrder: randomOrder,
		noShortcuts: opt.DisableShortcuts,
		rng:         rand.New(rand.NewSource(opt.Seed + 1)),
		gd:          gd,
	}

	add := pairAdder(res, spec, gd)

	gd.setFocalTotal(len(matches))
	k := int32(spec.K)
	for _, cluster := range clusters {
		if gd.check() != nil {
			break
		}
		pmd, anchorPos := tr.computePMD(matches, cluster, anchorIdx, pdist)
		for _, mi := range cluster {
			if gd.stopped() {
				break
			}
			m := matches[mi]
			anchors := matchAnchors(spec.Spec, anchorIdx, m)
			if len(anchors) > 63 {
				return nil, fmt.Errorf("census: union/intersection supports at most 63 anchor nodes, got %d", len(anchors))
			}
			full := uint64(1)<<uint(len(anchors)) - 1
			positions := make([]int, len(anchors))
			for i, a := range anchors {
				positions[i] = anchorPos[a]
			}
			if spec.Mode == Intersection {
				var nm []graph.NodeID
				for n, v := range pmd {
					inAll := true
					for _, pos := range positions {
						if v[pos] > k {
							inAll = false
							break
						}
					}
					if inAll {
						nm = append(nm, n)
					}
				}
				for i := 0; i < len(nm) && !gd.stopped(); i++ {
					for j := i + 1; j < len(nm); j++ {
						add(nm[i], nm[j], 1)
					}
				}
				gd.focalTick()
				continue
			}
			groups := make(map[uint64][]graph.NodeID)
			covered := make(map[graph.NodeID]bool)
			for n, v := range pmd {
				var mask uint64
				for i, pos := range positions {
					if v[pos] <= k {
						mask |= 1 << uint(i)
					}
				}
				if mask != 0 {
					groups[mask] = append(groups[mask], n)
					covered[n] = true
				}
			}
			var complement []graph.NodeID
			if len(groups[full]) > 0 {
				for i := 0; i < g.NumNodes(); i++ {
					if !covered[graph.NodeID(i)] {
						complement = append(complement, graph.NodeID(i))
					}
				}
			}
			emitUnionPairs(gd, groups, full, complement, add)
			gd.focalTick()
		}
	}
	return res, gd.failure(nil, res)
}

// emitUnionPairs adds one count for every unordered node pair whose masks
// OR to the full anchor set. complement lists the nodes with an empty mask
// (every graph node outside the traversed region): they pair with nodes
// whose own mask already covers all anchors. The O(pairs) emission loops
// poll the guard so a stop cuts them short within one group row.
func emitUnionPairs(gd *guard, groups map[uint64][]graph.NodeID, full uint64, complement []graph.NodeID, add func(a, b graph.NodeID, c int64)) {
	if gf := groups[full]; len(gf) > 0 {
		for _, a := range gf {
			if gd.stopped() {
				return
			}
			for _, b := range complement {
				add(a, b, 1)
			}
		}
	}
	maskList := make([]uint64, 0, len(groups))
	for mask := range groups {
		maskList = append(maskList, mask)
	}
	for i := 0; i < len(maskList) && !gd.stopped(); i++ {
		for j := i; j < len(maskList); j++ {
			x, y := maskList[i], maskList[j]
			if x|y != full {
				continue
			}
			gx, gy := groups[x], groups[y]
			if i == j {
				for a := 0; a < len(gx) && !gd.stopped(); a++ {
					for b := a + 1; b < len(gx); b++ {
						add(gx[a], gx[b], 1)
					}
				}
			} else {
				for _, a := range gx {
					if gd.stopped() {
						break
					}
					for _, b := range gy {
						add(a, b, 1)
					}
				}
			}
		}
	}
}

// pairPTDriven processes each match once: compute the set of nodes within
// k hops of each anchor, then emit pairs. For intersections every pair of
// nodes that both reach all anchors gets the match (N[M] x N[M]); for
// unions, nodes are grouped by the bitmask of anchors they reach and every
// pair of masks whose union covers all anchors contributes (the paper's
// 2-partition scheme, counted exactly once per pair).
func pairPTDriven(g *graph.Graph, spec PairSpec, opt Options, gd *guard) (*PairResult, error) {
	res := &PairResult{Counts: make(map[Pair]int64)}
	matches, embs, err := globalMatchesGuarded(g, spec.Spec, opt, gd)
	if err != nil {
		return nil, err
	}
	res.NumMatches, res.Embeddings = len(matches), embs
	if len(matches) == 0 {
		return res, nil
	}
	anchorIdx := spec.anchorNodes()

	add := pairAdder(res, spec, gd)

	gd.setFocalTotal(len(matches))
	for _, m := range matches {
		if gd.check() != nil {
			break
		}
		anchors := matchAnchors(spec.Spec, anchorIdx, m)
		if len(anchors) > 63 {
			return nil, fmt.Errorf("census: union/intersection supports at most 63 anchor nodes, got %d", len(anchors))
		}
		// masks[n] = bitmask of anchors within k hops of n.
		masks := make(map[graph.NodeID]uint64)
		s := graph.AcquireScratch(g.NumNodes())
		for i, a := range anchors {
			reach := g.KHop(a, spec.K, s)
			for _, n := range reach.Nodes {
				masks[n] |= 1 << uint(i)
			}
		}
		s.Release()
		full := uint64(1)<<uint(len(anchors)) - 1

		if spec.Mode == Intersection {
			var nm []graph.NodeID
			for n, mask := range masks {
				if mask == full {
					nm = append(nm, n)
				}
			}
			for i := 0; i < len(nm) && !gd.stopped(); i++ {
				for j := i + 1; j < len(nm); j++ {
					add(nm[i], nm[j], 1)
				}
			}
			gd.focalTick()
			continue
		}

		// Union: group nodes by mask, then pair up complementary groups.
		groups := make(map[uint64][]graph.NodeID)
		for n, mask := range masks {
			groups[mask] = append(groups[mask], n)
		}
		var complement []graph.NodeID
		if len(groups[full]) > 0 {
			for i := 0; i < g.NumNodes(); i++ {
				if _, ok := masks[graph.NodeID(i)]; !ok {
					complement = append(complement, graph.NodeID(i))
				}
			}
		}
		emitUnionPairs(gd, groups, full, complement, add)
		gd.focalTick()
	}
	return res, gd.failure(nil, res)
}
