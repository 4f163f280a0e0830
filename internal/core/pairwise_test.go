package core

import (
	"cmp"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/match"
	"egocensus/internal/pattern"
)

// brutePairCounts is the pairwise census oracle, sharing no code with CN
// or the drivers: match.Brute enumerates every embedding, Deduplicate
// keeps one per match (per subpattern image for COUNTSP), as bruteCensus
// does, and a pair counts the matches whose anchor images lie in the
// intersection or union of the two k-hop maps.
func brutePairCounts(t *testing.T, g *graph.Graph, spec PairSpec, pairs []Pair) map[Pair]int64 {
	t.Helper()
	matches := match.Deduplicate(spec.Pattern, match.Brute{}.Embeddings(g, spec.Pattern), spec.subNodesForKey())
	anchorIdx := spec.anchorNodes()
	out := make(map[Pair]int64)
	for _, pr := range pairs {
		ra := g.KHopNodes(pr.A, spec.K)
		rb := g.KHopNodes(pr.B, spec.K)
		for _, m := range matches {
			inside := true
			for _, idx := range anchorIdx {
				_, inA := ra[m[idx]]
				_, inB := rb[m[idx]]
				if spec.Mode == Intersection {
					if !inA || !inB {
						inside = false
						break
					}
				} else if !inA && !inB {
					inside = false
					break
				}
			}
			if inside {
				out[MakePair(pr.A, pr.B)]++
			}
		}
	}
	return out
}

func allPairs(g *graph.Graph) []Pair {
	var pairs []Pair
	for a := 0; a < g.NumNodes(); a++ {
		for b := a + 1; b < g.NumNodes(); b++ {
			pairs = append(pairs, Pair{graph.NodeID(a), graph.NodeID(b)})
		}
	}
	return pairs
}

// pairAlgorithms lists the five pairwise drivers.
var pairAlgorithms = []Algorithm{NDBas, NDPvot, PTBas, PTOpt, PTRnd}

// checkPairAlgorithms holds every pairwise driver, at workers 1 and 4, to
// the oracle on spec's pairs (all pairs when unlisted), and requires each
// driver's counts to be identical at both worker counts.
func checkPairAlgorithms(t *testing.T, g *graph.Graph, spec PairSpec) {
	t.Helper()
	pairs := spec.Pairs
	if pairs == nil {
		pairs = allPairs(g)
	}
	want := brutePairCounts(t, g, spec, pairs)
	for _, alg := range pairAlgorithms {
		var first map[Pair]int64
		for _, workers := range []int{1, 4} {
			res, err := CountPairs(g, spec, alg, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg, workers, err)
			}
			for _, pr := range pairs {
				key := MakePair(pr.A, pr.B)
				if res.Counts[key] != want[key] {
					t.Fatalf("%s workers=%d (%v): pair %v = %d want %d (k=%d, pattern=%s)",
						alg, workers, spec.Mode, key, res.Counts[key], want[key], spec.K, spec.Pattern.Name)
				}
			}
			// No spurious pairs either.
			for key, c := range res.Counts {
				if c != 0 && want[key] != c {
					t.Fatalf("%s workers=%d (%v): spurious pair %v = %d want %d", alg, workers, spec.Mode, key, c, want[key])
				}
			}
			if first == nil {
				first = res.Counts
			} else if !maps.Equal(res.Counts, first) {
				t.Fatalf("%s (%v): counts differ between workers 1 and 4", alg, spec.Mode)
			}
		}
	}
}

func TestPairwiseIntersectionNode(t *testing.T) {
	g := gen.ErdosRenyi(16, 32, 71)
	spec := PairSpec{
		Spec: Spec{Pattern: pattern.SingleNode("n", ""), K: 1},
		Mode: Intersection,
	}
	spec.Pairs = allPairs(g)
	checkPairAlgorithms(t, g, spec)
}

func TestPairwiseIntersectionTriangle(t *testing.T) {
	g := gen.ErdosRenyi(14, 35, 73)
	spec := PairSpec{
		Spec: Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 2},
		Mode: Intersection,
	}
	spec.Pairs = allPairs(g)
	checkPairAlgorithms(t, g, spec)
}

func TestPairwiseUnionEdge(t *testing.T) {
	g := gen.ErdosRenyi(12, 26, 79)
	spec := PairSpec{
		Spec: Spec{Pattern: pattern.SingleEdge("e", nil), K: 1},
		Mode: Union,
	}
	spec.Pairs = allPairs(g)
	checkPairAlgorithms(t, g, spec)
}

func TestPairwiseJaccardComponents(t *testing.T) {
	// Jaccard coefficient = |N(a) ∩ N(b)| / |N(a) ∪ N(b)| can be computed
	// from two pairwise single-node censuses (Section I reduction).
	g := gen.ErdosRenyi(15, 30, 83)
	inter := PairSpec{Spec: Spec{Pattern: pattern.SingleNode("n", ""), K: 1}, Mode: Intersection}
	union := PairSpec{Spec: Spec{Pattern: pattern.SingleNode("n", ""), K: 1}, Mode: Union}
	ri, err := CountPairs(g, inter, PTOpt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ru, err := CountPairs(g, union, PTOpt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < g.NumNodes(); a++ {
		for b := a + 1; b < g.NumNodes(); b++ {
			na := g.KHopNodes(graph.NodeID(a), 1)
			nb := g.KHopNodes(graph.NodeID(b), 1)
			var wantI, wantU int64
			for n := range na {
				if _, ok := nb[n]; ok {
					wantI++
				}
			}
			wantU = int64(len(na)) + int64(len(nb)) - wantI
			key := MakePair(graph.NodeID(a), graph.NodeID(b))
			if ri.Counts[key] != wantI {
				t.Fatalf("pair %v intersection = %d want %d", key, ri.Counts[key], wantI)
			}
			if ru.Counts[key] != wantU {
				t.Fatalf("pair %v union = %d want %d", key, ru.Counts[key], wantU)
			}
		}
	}
}

func TestPairwisePairListRestriction(t *testing.T) {
	g := gen.ErdosRenyi(18, 40, 89)
	pairs := []Pair{{0, 5}, {2, 9}, {1, 17}}
	spec := PairSpec{
		Spec:  Spec{Pattern: pattern.SingleEdge("e", nil), K: 2},
		Mode:  Intersection,
		Pairs: pairs,
	}
	want := brutePairCounts(t, g, spec, pairs)
	for _, alg := range []Algorithm{NDBas, NDPvot, PTBas, PTOpt} {
		res, err := CountPairs(g, spec, alg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(res.Counts) > len(pairs) {
			t.Fatalf("%s: returned %d pairs, expected at most %d", alg, len(res.Counts), len(pairs))
		}
		for _, pr := range pairs {
			key := MakePair(pr.A, pr.B)
			if res.Counts[key] != want[key] {
				t.Fatalf("%s: pair %v = %d want %d", alg, key, res.Counts[key], want[key])
			}
		}
	}
}

func TestPairwiseSubpattern(t *testing.T) {
	g := gen.ErdosRenyi(14, 30, 97)
	p := pattern.Clique("clq3", 3, nil)
	if err := p.AddSubpattern("corner", []int{0}); err != nil {
		t.Fatal(err)
	}
	// Far anchors: the pivot is 3 hops from the other anchor, so ND-PVOT
	// checks containment partially in both modes; with all four nodes as
	// anchors, it checks a different anchor set at each distance.
	ch := pattern.Chain("ch4", 4, nil)
	if err := ch.AddSubpattern("ends", []int{0, 3}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []PairSpec{
		{Spec: Spec{Pattern: p, Subpattern: "corner", K: 1}, Mode: Intersection},
		{Spec: Spec{Pattern: ch, Subpattern: "ends", K: 2}, Mode: Intersection},
		{Spec: Spec{Pattern: ch, Subpattern: "ends", K: 2}, Mode: Union},
		{Spec: Spec{Pattern: ch, K: 2}, Mode: Intersection},
		{Spec: Spec{Pattern: ch, K: 2}, Mode: Union},
	} {
		spec.Pairs = allPairs(g)
		checkPairAlgorithms(t, g, spec)
	}
}

// TestPairwiseAgreeProperty draws random graphs, directed or not, random
// patterns, COUNTP or COUNTSP, and a random combinator and radius, and
// holds every pairwise driver at workers 1 and 4 to the oracle.
func TestPairwiseAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(8)
		g := gen.ErdosRenyi(n, 20+rng.Intn(15), seed)
		directed := rng.Intn(2) == 1
		if directed {
			g = gen.DirectedPreferentialAttachment(n, 2, seed)
		}
		mode := Intersection
		if rng.Intn(2) == 1 {
			mode = Union
		}
		var p *pattern.Pattern
		sub := ""
		switch rng.Intn(4) {
		case 0:
			p = pattern.SingleNode("n", "")
		case 1:
			p = pattern.SingleEdge("e", nil)
		default:
			// A chain's pivot is over a hop from its far anchors, which
			// takes ND-PVOT into partial containment checks.
			p, sub = pattern.Chain("ch4", 4, nil), "ends"
			if directed {
				p = directedPath("dpath", nil)
			}
			if err := p.AddSubpattern("ends", []int{0, p.NumNodes() - 1}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				sub = ""
			}
		}
		k := 1 + rng.Intn(2)
		spec := PairSpec{Spec: Spec{Pattern: p, Subpattern: sub, K: k}, Mode: mode}
		spec.Pairs = allPairs(g)
		want := brutePairCounts(t, g, spec, spec.Pairs)
		for _, alg := range pairAlgorithms {
			var first map[Pair]int64
			for _, workers := range []int{1, 4} {
				res, err := CountPairs(g, spec, alg, Options{Seed: seed, Workers: workers})
				if err != nil {
					t.Log(err)
					return false
				}
				for _, pr := range spec.Pairs {
					key := MakePair(pr.A, pr.B)
					if res.Counts[key] != want[key] {
						t.Logf("seed %d %s workers=%d directed=%v %v %s/%q k=%d pair %v: %d want %d",
							seed, alg, workers, directed, mode, p.Name, sub, k, key, res.Counts[key], want[key])
						return false
					}
				}
				if first == nil {
					first = res.Counts
				} else if !maps.Equal(res.Counts, first) {
					t.Logf("seed %d %s: counts differ between workers 1 and 4", seed, alg)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPairwiseDirected holds the pairwise drivers to the oracle on a
// directed graph, COUNTP and COUNTSP, under both combinators.
func TestPairwiseDirected(t *testing.T) {
	g := gen.DirectedPreferentialAttachment(16, 2, 47)
	p := directedPath("dpath", nil)
	if err := p.AddSubpattern("ends", []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []PairMode{Intersection, Union} {
		for _, sub := range []string{"", "ends"} {
			for _, k := range []int{1, 2} {
				checkPairAlgorithms(t, g, PairSpec{Spec: Spec{Pattern: p, Subpattern: sub, K: k}, Mode: mode, Pairs: allPairs(g)})
			}
		}
	}
}

func TestPairwiseErrors(t *testing.T) {
	g := gen.ErdosRenyi(10, 15, 101)
	spec := PairSpec{Spec: Spec{Pattern: pattern.SingleNode("n", ""), K: 1}, Mode: Intersection}
	if _, err := CountPairs(g, spec, NDBas, Options{}); err == nil {
		t.Fatal("ND-BAS without pair list should error")
	}
	if _, err := CountPairs(g, spec, NDPvot, Options{}); err == nil {
		t.Fatal("ND-PVOT without pair list should error")
	}
	if _, err := CountPairs(g, spec, NDDiff, Options{}); err == nil {
		t.Fatal("ND-DIFF pairwise should be unsupported")
	}
}

func TestPairModeString(t *testing.T) {
	if Intersection.String() != "SUBGRAPH-INTERSECTION" || Union.String() != "SUBGRAPH-UNION" {
		t.Fatal("mode strings wrong")
	}
}

func TestMakePairCanonical(t *testing.T) {
	if MakePair(5, 2) != (Pair{2, 5}) || MakePair(2, 5) != (Pair{2, 5}) {
		t.Fatal("MakePair not canonical")
	}
}

// TestPairMaskedMatchingEqualsExtraction pins the equivalence the
// node-driven pair drivers rely on: counting on the parent graph inside
// the pair's combined reach equals matching inside the extracted
// intersection or union subgraph. The reference deduplicates GQL's
// embeddings inside g.EgoIntersection or g.EgoUnion.
func TestPairMaskedMatchingEqualsExtraction(t *testing.T) {
	und := gen.PreferentialAttachment(120, 3, 31)
	gen.AssignLabels(und, 3, 32)
	dir := gen.DirectedPreferentialAttachment(120, 3, 33)
	gen.AssignLabels(dir, 2, 34)
	cases := []struct {
		g    *graph.Graph
		spec Spec
	}{
		{und, Spec{Pattern: pattern.Clique("clq3", 3, []string{"l0", "l1", "l2"}), K: 2}},
		{und, Spec{Pattern: pattern.Clique("clq3u", 3, nil), K: 1}},
		{dir, Spec{Pattern: directedPath("dpath", []string{"l0", "", "l1"}), K: 2}},
		{dir, Spec{Pattern: directedPath("dpathu", nil), K: 1}},
	}
	rng := rand.New(rand.NewSource(35))
	for _, c := range cases {
		pairs := make([]Pair, 40)
		for i := range pairs {
			pairs[i] = MakePair(graph.NodeID(rng.Intn(c.g.NumNodes())), graph.NodeID(rng.Intn(c.g.NumNodes())))
		}
		p := c.spec.Pattern
		for _, mode := range []PairMode{Intersection, Union} {
			want := make(map[Pair]int64)
			for _, pr := range pairs {
				sg := c.g.EgoIntersection(pr.A, pr.B, c.spec.K)
				if mode == Union {
					sg = c.g.EgoUnion(pr.A, pr.B, c.spec.K)
				}
				if n := len(match.Deduplicate(p, match.GQL{}.Embeddings(sg.G, p), nil)); n > 0 {
					want[pr] = int64(n)
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s %v: no pair has a match; the instance tests nothing", p.Name, mode)
			}
			spec := PairSpec{Spec: c.spec, Mode: mode, Pairs: pairs}
			for _, alg := range []Algorithm{NDBas, NDPvot} {
				res, err := CountPairs(c.g, spec, alg, Options{})
				if err != nil {
					t.Fatalf("%s %s %v: %v", p.Name, alg, mode, err)
				}
				if !maps.Equal(res.Counts, want) {
					t.Fatalf("%s %s %v: counts %v, extracted %v", p.Name, alg, mode, res.Counts, want)
				}
			}
		}
	}
}

// TestPairSpecValidate checks that every pairwise driver rejects a pair
// naming a node outside the graph, and an unknown pair mode, with an
// error instead of a panic or a silent empty result.
func TestPairSpecValidate(t *testing.T) {
	g := gen.ErdosRenyi(50, 120, 41)
	base := Spec{Pattern: pattern.SingleEdge("e", nil), K: 1}
	bad := []PairSpec{
		{Spec: base, Mode: Intersection, Pairs: []Pair{{0, 5000}}},
		{Spec: base, Mode: Union, Pairs: []Pair{{-1, 3}}},
		{Spec: base, Mode: PairMode(7), Pairs: []Pair{{0, 1}}},
	}
	for _, spec := range bad {
		for _, alg := range []Algorithm{NDBas, NDPvot, PTBas, PTOpt, PTRnd} {
			if _, err := CountPairs(g, spec, alg, Options{}); err == nil {
				t.Fatalf("%s mode=%d pairs=%v: no error", alg, spec.Mode, spec.Pairs)
			}
		}
	}
}

// TestPairDuplicateChargedOnce lists the same pair in both orders under a
// one-row limit: every pairwise driver counts it once, charges one row,
// and agrees with the singly listed pair, for COUNTP and for the COUNTSP
// containment path.
func TestPairDuplicateChargedOnce(t *testing.T) {
	g := gen.ErdosRenyi(30, 60, 43)
	chain := pattern.Chain("ch3", 3, nil)
	if err := chain.AddSubpattern("ends", []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	opt := Options{Limits: Limits{MaxResultRows: 1}}
	for _, s := range []Spec{
		{Pattern: pattern.SingleNode("n", ""), K: 1},
		{Pattern: chain, Subpattern: "ends", K: 1},
	} {
		spec := PairSpec{Spec: s, Mode: Union, Pairs: []Pair{{0, 1}}}
		dup := spec
		dup.Pairs = []Pair{{0, 1}, {1, 0}, {0, 1}}
		for _, alg := range []Algorithm{NDBas, NDPvot, PTBas, PTOpt, PTRnd} {
			want, err := CountPairs(g, spec, alg, opt)
			if err != nil {
				t.Fatalf("%s %s single: %v", s.Pattern.Name, alg, err)
			}
			got, err := CountPairs(g, dup, alg, opt)
			if err != nil {
				t.Fatalf("%s %s duplicated: %v", s.Pattern.Name, alg, err)
			}
			if !maps.Equal(got.Counts, want.Counts) || len(got.Counts) != 1 {
				t.Fatalf("%s %s: duplicated %v, single %v", s.Pattern.Name, alg, got.Counts, want.Counts)
			}
		}
	}
}

// TestPairwisePartialPairsDeterministic runs a row-limited pair query
// repeatedly on every pair driver at workers 1 and 4: the partial pairs
// are the same every time. For the node-driven drivers they are the first
// non-zero pairs in (A, B) order, with their full counts; the
// pattern-driven ones stop part-way through a match's pairs.
func TestPairwisePartialPairsDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(60, 150, 53)
	const q = `
PATTERN e1 { ?A-?B; }
SELECT n1.ID, n2.ID, COUNTP(e1, SUBGRAPH-UNION(n1.ID, n2.ID, 1))
FROM nodes AS n1, nodes AS n2 WHERE n1.ID < 30 AND n2.ID < 30`
	full := NewEngine(g)
	full.Alg = NDPvot
	tables, err := full.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	// Both orders of a pair pass the WHERE; the census counts it once.
	counts := make(map[Pair]int64)
	for _, row := range tables[0].TypedRows {
		counts[MakePair(row.Focal[0], row.Focal[1])] = row.Count
	}
	order := slices.SortedFunc(maps.Keys(counts), func(x, y Pair) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	firstPairs := make(map[Pair]int64)
	for _, pr := range order[:20] {
		firstPairs[pr] = counts[pr]
	}
	for _, alg := range []Algorithm{NDBas, NDPvot, PTBas, PTOpt, PTRnd} {
		var want map[Pair]int64
		if alg == NDBas || alg == NDPvot {
			want = firstPairs
		}
		for _, workers := range []int{1, 4} {
			for run := 0; run < 10; run++ {
				e := NewEngine(g)
				e.Alg = alg
				e.Opt = Options{Workers: workers, Limits: Limits{MaxResultRows: 20}}
				_, err := e.Execute(q)
				var le *LimitError
				if !errors.As(err, &le) || le.PartialPairs == nil {
					t.Fatalf("%v workers=%d run %d: err = %v, want a *LimitError with partial pairs", alg, workers, run, err)
				}
				if want == nil {
					want = le.PartialPairs.Counts
				}
				if !maps.Equal(le.PartialPairs.Counts, want) {
					t.Fatalf("%v workers=%d run %d: partial pairs %v, want %v", alg, workers, run, le.PartialPairs.Counts, want)
				}
			}
		}
	}
}
