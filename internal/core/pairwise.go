package core

import (
	"context"
	"fmt"
	"iter"
	"maps"
	"math/rand"
	"slices"

	"egocensus/internal/graph"
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
	case NDBas, NDPvot:
		return pairND(g, spec, alg, opt, gd)
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

// pairND runs a node-driven pair census on the single-node drivers' unit
// loops (Appendix B): each distinct listed pair is one unit, whose reach
// is the pair's combined neighborhood. The non-zero slots become the
// result in pair order, one charged row each.
func pairND(g *graph.Graph, spec PairSpec, alg Algorithm, opt Options, gd *guard) (*PairResult, error) {
	if spec.Pairs == nil {
		return nil, fmt.Errorf("census: %s pairwise requires an explicit pair list", alg)
	}
	us := pairUnits(spec)
	counts, err := countUnits(g, spec.Spec, us, alg, opt, gd)
	if counts == nil {
		return nil, err
	}
	// A non-nil err is the guard's stop, raised again below with the
	// pairs in place of the slot vector.
	res := &PairResult{Counts: make(map[Pair]int64), NumMatches: counts.NumMatches, Embeddings: counts.Embeddings}
	for i, c := range counts.Counts {
		if c == 0 {
			continue
		}
		if gd.chargeRows(1) != nil {
			break
		}
		res.Counts[us.pairs[i]] = c
	}
	return res, gd.failure(nil, res)
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
			anchors := matchAnchors(spec.Spec, anchorIdx, matches[mi])
			positions := make([]int, len(anchors))
			for i, a := range anchors {
				positions[i] = anchorPos[a]
			}
			masks := func(yield func(graph.NodeID, uint64) bool) {
				for n, v := range pmd {
					var mask uint64
					for i, pos := range positions {
						if v[pos] <= k {
							mask |= 1 << uint(i)
						}
					}
					if !yield(n, mask) {
						return
					}
				}
			}
			if err := emitMatchPairs(g, spec.Mode, len(anchors), masks, gd, add); err != nil {
				return nil, err
			}
			gd.focalTick()
		}
	}
	return res, gd.failure(nil, res)
}

// emitMatchPairs adds one match to every pair its anchor masks admit
// (Appendix B), the step pairPTDriven and pairPTOpt share. masks yields
// nodes with the bitmask of the match's numAnchors distinct anchors
// within k hops of each; an unlisted node, like a zero mask, reaches
// none. A pair counts when its masks OR to full. Under ∩ that is every
// pair of full-mask nodes, N[M] × N[M]. Under ∪ nodes are grouped by
// mask, and full-mask nodes also pair with every node that reaches no
// anchor: the paper's 2-partition scheme, counted once per pair. The
// O(pairs) loops poll the guard so a stop cuts them short within a row.
// Under a guard, nodes and masks are emitted in sorted order, whatever
// order masks yields them in, so a row limit stops at the same pairs on
// every run; without one nothing stops the emission part-way, and the
// counts do not depend on the order.
func emitMatchPairs(g *graph.Graph, mode PairMode, numAnchors int, masks iter.Seq2[graph.NodeID, uint64], gd *guard, add func(a, b graph.NodeID, c int64)) error {
	if numAnchors > 63 {
		return fmt.Errorf("census: union/intersection supports at most 63 anchor nodes, got %d", numAnchors)
	}
	full := uint64(1)<<uint(numAnchors) - 1
	sorted := gd != nil
	if mode == Intersection {
		var nm []graph.NodeID
		for n, mask := range masks {
			if mask == full {
				nm = append(nm, n)
			}
		}
		if sorted {
			slices.Sort(nm)
		}
		for i := 0; i < len(nm) && !gd.stopped(); i++ {
			for j := i + 1; j < len(nm); j++ {
				add(nm[i], nm[j], 1)
			}
		}
		return nil
	}
	groups := make(map[uint64][]graph.NodeID)
	for n, mask := range masks {
		if mask != 0 {
			groups[mask] = append(groups[mask], n)
		}
	}
	if sorted {
		for _, ns := range groups {
			slices.Sort(ns)
		}
	}
	if gf := groups[full]; len(gf) > 0 {
		covered := make([]bool, g.NumNodes())
		for _, ns := range groups {
			for _, n := range ns {
				covered[n] = true
			}
		}
		for _, a := range gf {
			if gd.stopped() {
				return nil
			}
			for b, c := range covered {
				if !c {
					add(a, graph.NodeID(b), 1)
				}
			}
		}
	}
	maskList := slices.Sorted(maps.Keys(groups))
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
	return nil
}

// pairPTDriven processes each match once: one BFS per anchor gives every
// node within k hops of some anchor its anchor mask, and emitMatchPairs
// emits the match's pairs from the masks.
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
		if err := emitMatchPairs(g, spec.Mode, len(anchors), maps.All(masks), gd, add); err != nil {
			return nil, err
		}
		gd.focalTick()
	}
	return res, gd.failure(nil, res)
}
