// Package core implements the paper's primary contribution: evaluation
// algorithms for ego-centric pattern census queries (Section IV and
// Appendix B). Given a pattern and a neighborhood radius k, a census
// assigns to every focal node (or node pair) the number of pattern matches
// contained in its k-hop neighborhood (or in the intersection/union of two
// neighborhoods).
//
// Node-driven algorithms (ND-BAS, ND-DIFF, ND-PVOT) search from nodes to
// pattern matches; pattern-driven algorithms (PT-BAS, PT-RND, PT-OPT)
// search from pattern matches to nodes. All six produce identical counts;
// they differ only in cost.
package core

import (
	"context"
	"fmt"
	"sort"

	"egocensus/internal/centers"
	"egocensus/internal/graph"
	"egocensus/internal/match"
	"egocensus/internal/pattern"
)

// Algorithm names a census evaluation algorithm.
type Algorithm string

// The algorithms of Section IV.
const (
	NDBas  Algorithm = "ND-BAS"
	NDDiff Algorithm = "ND-DIFF"
	NDPvot Algorithm = "ND-PVOT"
	PTBas  Algorithm = "PT-BAS"
	PTRnd  Algorithm = "PT-RND"
	PTOpt  Algorithm = "PT-OPT"
)

// Algorithms lists every census algorithm in presentation order.
var Algorithms = []Algorithm{NDBas, NDDiff, NDPvot, PTBas, PTRnd, PTOpt}

// Spec describes a single-node census task: COUNTP(pattern, SUBGRAPH(ID,k))
// or COUNTSP(sub, pattern, SUBGRAPH(ID, k)).
type Spec struct {
	// Pattern is the pattern graph to count.
	Pattern *pattern.Pattern
	// Subpattern optionally names a subpattern of Pattern; when set, a
	// match is counted for a node if the *subpattern image* lies inside
	// the neighborhood (COUNTSP). Empty means the whole pattern must lie
	// inside (COUNTP).
	Subpattern string
	// K is the neighborhood radius (k >= 0).
	K int
	// Focal restricts the census to these nodes (V_sigma(G)); nil means
	// every node.
	Focal []graph.NodeID
}

// Validate checks the spec against the graph.
func (s Spec) Validate(g *graph.Graph) error {
	if s.Pattern == nil {
		return fmt.Errorf("census: nil pattern")
	}
	if err := s.Pattern.Validate(); err != nil {
		return err
	}
	if s.K < 0 {
		return fmt.Errorf("census: negative radius k=%d", s.K)
	}
	if s.Subpattern != "" {
		if _, ok := s.Pattern.Subpattern(s.Subpattern); !ok {
			return fmt.Errorf("census: pattern %s has no subpattern %q", s.Pattern.Name, s.Subpattern)
		}
	}
	for _, n := range s.Focal {
		if n < 0 || int(n) >= g.NumNodes() {
			return fmt.Errorf("census: focal node %d out of range", n)
		}
	}
	return nil
}

// anchorNodes returns the pattern node indices whose images must lie in
// the neighborhood: the subpattern for COUNTSP, all nodes for COUNTP.
func (s Spec) anchorNodes() []int {
	if s.Subpattern != "" {
		sub, _ := s.Pattern.Subpattern(s.Subpattern)
		return sub
	}
	all := make([]int, s.Pattern.NumNodes())
	for i := range all {
		all[i] = i
	}
	return all
}

// subNodesForKey returns the dedup key qualifier: for COUNTSP the
// subpattern image distinguishes automorphic embeddings; for COUNTP it
// does not.
func (s Spec) subNodesForKey() []int {
	if s.Subpattern == "" {
		return nil
	}
	sub, _ := s.Pattern.Subpattern(s.Subpattern)
	return sub
}

// focalList materializes the focal node list (all nodes when unrestricted).
func (s Spec) focalList(g *graph.Graph) []graph.NodeID {
	if s.Focal != nil {
		return s.Focal
	}
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	return all
}

// focalSet returns a membership vector for the focal nodes, or nil when
// every node is focal.
func (s Spec) focalSet(g *graph.Graph) []bool {
	if s.Focal == nil {
		return nil
	}
	set := make([]bool, g.NumNodes())
	for _, n := range s.Focal {
		set[n] = true
	}
	return set
}

// Options tunes algorithm internals. The zero value reproduces the paper's
// defaults.
type Options struct {
	// NumCenters is the number of high-degree centers for PT-OPT/PT-RND
	// (paper default 12). Negative disables centers entirely.
	NumCenters int
	// CenterStrategy picks DEG-CNTR (default) or RND-CNTR.
	CenterStrategy centers.Strategy
	// PMDCenters, when non-nil, overrides the center index used for
	// traversal-distance initialization — Fig 4(f) isolates the PMD effect
	// by varying these while holding clustering centers fixed.
	PMDCenters *centers.Index
	// ClusterCenters, when non-nil, overrides the center index used to
	// build K-means feature vectors.
	ClusterCenters *centers.Index

	// Clusters is the K for pattern-match clustering; 0 means the paper's
	// default of |M|/4. Ignored with NoClustering.
	Clusters int
	// NoClustering processes every match independently (NO-CLUST).
	NoClustering bool
	// RandomClustering assigns matches to clusters uniformly at random
	// (RND-CLUST) instead of K-means (OPT-CLUST).
	RandomClustering bool
	// KMeansIters bounds the K-means iterations (paper default 10).
	KMeansIters int

	// DisableShortcuts turns off the pattern-distance initialization of
	// Section IV-B2 (ablation only; anchors still seed their own zero
	// distances).
	DisableShortcuts bool

	// Seed drives the random choices (center sampling, K-means seeding,
	// PT-RND ordering).
	Seed int64

	// Workers bounds the parallelism of the global match's extraction and
	// of the counting phase (ND-PVOT focal nodes, PT-OPT/PT-RND clusters).
	// Zero or one runs sequentially; negative values mean "auto" (one
	// worker per CPU); absurd values are capped. See EffectiveWorkers.
	Workers int

	// Limits bounds the resources evaluation may consume (match-set size,
	// result rows, wall-clock deadline, approximate memory). Exceeding a
	// limit surfaces as a *LimitError carrying partial results. The zero
	// value imposes no limits.
	Limits Limits
}

func (o Options) workers() int { return EffectiveWorkers(o.Workers) }

func (o Options) numCenters() int {
	if o.NumCenters < 0 {
		return 0
	}
	if o.NumCenters == 0 {
		return 12
	}
	return o.NumCenters
}

func (o Options) kmeansIters() int {
	if o.KMeansIters <= 0 {
		return 10
	}
	return o.KMeansIters
}

// Result is a census result: per-focal-node match counts.
type Result struct {
	// Counts[n] is the number of matches for focal node n. Entries for
	// non-focal nodes are zero and not meaningful.
	Counts []int64
	// NumMatches is |M|, the global number of pattern matches found (0 for
	// ND-BAS, which never materializes the global match set).
	NumMatches int
	// Embeddings is the number of embeddings CN emitted to find those
	// matches (0 where NumMatches is). CN's symmetry breaking emits one
	// per match for COUNTP.
	Embeddings int
}

// Count evaluates a single-node census with the chosen algorithm.
func Count(g *graph.Graph, spec Spec, alg Algorithm, opt Options) (*Result, error) {
	return CountContext(context.Background(), g, spec, alg, opt) //egolint:allow ctxflow sanctioned root: public non-Context convenience wrapper; cancellation-aware callers use the Context variant
}

// CountContext evaluates a single-node census under ctx: cancellation and
// the limits in opt.Limits are enforced inside the drivers with periodic
// low-overhead checks, so evaluation returns within a bounded interval of
// cancellation. A stop surfaces as a *CanceledError or *LimitError
// carrying progress stats and the partial census accumulated so far.
func CountContext(ctx context.Context, g *graph.Graph, spec Spec, alg Algorithm, opt Options) (*Result, error) {
	if err := spec.Validate(g); err != nil {
		return nil, err
	}
	gd, cancel := newGuard(ctx, opt.Limits)
	defer cancel()
	return countGuarded(g, spec, alg, opt, gd)
}

// countGuarded dispatches to the drivers under an existing guard (the
// engine shares one guard across a whole query pipeline).
//
//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countGuarded(g *graph.Graph, spec Spec, alg Algorithm, opt Options, gd *guard) (*Result, error) {
	switch alg {
	case NDBas, NDPvot:
		return countUnits(g, spec, focalUnits(g, spec), alg, opt, gd)
	case NDDiff:
		return countNDDiff(g, spec, opt, gd)
	case PTBas:
		return countPTBas(g, spec, opt, gd)
	case PTOpt:
		return countPTDriven(g, spec, opt, false, gd)
	case PTRnd:
		return countPTDriven(g, spec, opt, true, gd)
	default:
		return nil, fmt.Errorf("census: unknown algorithm %q", alg)
	}
}

// countUnits runs ND-BAS or ND-PVOT over a unit list, focal nodes or
// pairs, into one count slot per unit.
func countUnits(g *graph.Graph, spec Spec, us units, alg Algorithm, opt Options, gd *guard) (*Result, error) {
	if alg == NDBas {
		return countNDBas(g, spec, us, opt, gd)
	}
	res, err := countNDPvot(g, []Spec{spec}, us, opt, gd)
	if res == nil {
		return nil, err
	}
	return res[0], err
}

// globalMatchesGuarded finds the set M of matches of the spec's pattern
// in g, in lexicographic order, plus the number of embeddings CN emitted
// to find it; CN extracts on opt's workers. Under a guard, enumeration
// aborts within one check epoch of a stop, and the match set is charged
// against the MaxMatches and MemoryBudget limits; a nil guard checks
// nothing and never fails.
func globalMatchesGuarded(g *graph.Graph, spec Spec, opt Options, gd *guard) ([]pattern.Match, int, error) {
	if globalMatchHook != nil {
		globalMatchHook()
	}
	workers := opt.workers()
	matches, embeddings := match.CN{Stop: gd.stopFunc()}.Matches(g, spec.Pattern, spec.subNodesForKey(), match.Scheduler{
		Workers: workers,
		// CN polls the guard itself; scheduling without it keeps root
		// candidates out of the focal progress counters.
		ForEach: func(n int, cost func(int) int64, body func(w, i int)) {
			parallelFor(nil, workers, n, cost, body)
		},
	})
	if gd.stopped() {
		return nil, 0, gd.failure(nil, nil)
	}
	// Dominant cost of the match set: one NodeID per pattern node per
	// match, plus slice headers.
	perMatch := int64(spec.Pattern.NumNodes())*4 + 24
	gd.chargeMem(int64(len(matches)) * perMatch)
	if err := gd.chargeMatches(len(matches)); err != nil {
		return nil, 0, gd.failure(nil, nil)
	}
	return matches, embeddings, nil
}

// matchAnchors returns the deduplicated image nodes of the spec's anchor
// pattern nodes under m, i.e. the graph nodes that must fall inside the
// neighborhood. Small anchor sets (the common case — pattern nodes) dedup
// by linear scan; larger ones sort to avoid quadratic work.
func matchAnchors(spec Spec, anchorIdx []int, m pattern.Match) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(anchorIdx))
	if len(anchorIdx) <= 8 {
		for _, idx := range anchorIdx {
			img := m[idx]
			dup := false
			for _, x := range out {
				if x == img {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, img)
			}
		}
		return out
	}
	for _, idx := range anchorIdx {
		out = append(out, m[idx])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
