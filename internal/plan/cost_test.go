package plan

import (
	"math"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/pattern"
)

func trianglePattern() *pattern.Pattern {
	p := pattern.New("tri")
	for _, v := range []string{"A", "B", "C"} {
		p.MustAddNode(v, "")
	}
	p.MustAddEdge(0, 1, false, false)
	p.MustAddEdge(1, 2, false, false)
	p.MustAddEdge(0, 2, false, false)
	return p
}

func TestEstimateMatchesEdgePattern(t *testing.T) {
	// For the single-edge pattern the configuration model is exact in
	// expectation: homs = (Σd)²/Σd = Σd = 2|E|, matches = |E|.
	g := gen.ErdosRenyi(200, 600, 11)
	s := graph.ComputeStats(g)
	e1 := pattern.New("e1")
	e1.MustAddNode("A", "")
	e1.MustAddNode("B", "")
	e1.MustAddEdge(0, 1, false, false)
	matches, homs, autos := EstimateMatches(e1, "", s)
	if autos != 2 {
		t.Fatalf("autos = %d", autos)
	}
	if math.Abs(homs-float64(2*g.NumEdges())) > 1e-6 {
		t.Fatalf("homs = %v want %d", homs, 2*g.NumEdges())
	}
	if math.Abs(matches-float64(g.NumEdges())) > 1e-6 {
		t.Fatalf("matches = %v want %d", matches, g.NumEdges())
	}
}

func TestEstimateMatchesLabelThinning(t *testing.T) {
	g := gen.ErdosRenyi(200, 600, 12)
	gen.AssignLabels(g, 4, 13)
	s := graph.ComputeStats(g)
	plain, _, _ := EstimateMatches(trianglePattern(), "", s)
	labeled := trianglePattern()
	labeled.SetLabel(0, gen.LabelName(0))
	got, _, autos := EstimateMatches(labeled, "", s)
	if autos != 2 {
		t.Fatalf("labeled triangle autos = %d want 2", autos)
	}
	// One label at frequency ~1/4 thins homs 4x, but the automorphism
	// divisor drops 6 -> 2, so matches shrink by about (6/2)/4 = 3/4.
	want := plain * s.LabelFreq(gen.LabelName(0)) * 6 / 2
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("labeled matches = %v want %v", got, want)
	}
}

func TestCostModelReproducesFig4cRanking(t *testing.T) {
	// The Fig 4(c) sweep: unlabeled triangle census, k=2, over the
	// n=1000 preferential-attachment graph. The measured ranking is
	// ND-PVOT < PT-BAS < ND-DIFF << PT-OPT < PT-RND << ND-BAS; the cost
	// model must reproduce it from the statistics snapshot alone.
	g := gen.PreferentialAttachment(1000, 5, 1)
	s := graph.ComputeStats(g)
	matches, _, _ := EstimateMatches(trianglePattern(), "", s)
	n := float64(s.Nodes)
	nbrNodes := s.NeighborhoodNodes(2)
	in := CostInput{
		Matches:      matches,
		Focals:       n,
		NbrNodes:     nbrNodes,
		NbrEdges:     s.NeighborhoodEdges(2),
		Contain:      math.Min(1, nbrNodes/n),
		PatternEdges: 3,
		Stats:        s,
	}
	wantOrder := []string{NDPvot, PTBas, NDDiff, PTOpt, PTRnd, NDBas}
	for i := 1; i < len(wantOrder); i++ {
		lo, hi := in.Cost(wantOrder[i-1]), in.Cost(wantOrder[i])
		if !(lo < hi) {
			t.Fatalf("cost(%s)=%v not below cost(%s)=%v", wantOrder[i-1], lo, wantOrder[i], hi)
		}
	}
	if best, _ := in.Best(Algorithms); best != NDPvot {
		t.Fatalf("best = %s want %s", best, NDPvot)
	}
	if c := in.Cost("NO-SUCH"); !math.IsInf(c, 1) {
		t.Fatalf("unknown algorithm cost = %v want +Inf", c)
	}
}

func TestCostModelSelectiveRegimeFlipsToPatternDriven(t *testing.T) {
	// When the match set is tiny relative to the focal set, pattern-driven
	// evaluation must win over node-driven.
	g := gen.PreferentialAttachment(1000, 5, 1)
	s := graph.ComputeStats(g)
	n := float64(s.Nodes)
	nbrNodes := s.NeighborhoodNodes(2)
	in := CostInput{
		Matches:      20, // rare labeled pattern
		Focals:       n,
		NbrNodes:     nbrNodes,
		NbrEdges:     s.NeighborhoodEdges(2),
		Contain:      math.Min(1, nbrNodes/n),
		PatternEdges: 3,
		Stats:        s,
	}
	best, _ := in.Best(Algorithms)
	if best != PTBas && best != PTOpt && best != PTRnd {
		t.Fatalf("selective regime chose %s, want a PT variant", best)
	}
}

func TestWhereSelectivity(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 21)
	gen.AssignLabels(g, 2, 22)
	s := graph.ComputeStats(g)
	cases := []struct {
		where string
		want  float64
		tol   float64
	}{
		{"RND() < 0.3", 0.3, 1e-9},
		{"RND() >= 0.3", 0.7, 1e-9},
		{"0.3 > RND()", 0.3, 1e-9},
		{"RND() < 0.5 AND RND() < 0.5", 0.25, 1e-9},
		{"RND() < 0.5 OR RND() < 0.5", 0.75, 1e-9},
		{"NOT RND() < 0.25", 0.75, 1e-9},
		{"LABEL = 'l0'", s.LabelFreq("l0"), 1e-9},
		{"LABEL != 'l0'", 1 - s.LabelFreq("l0"), 1e-9},
		{"DEGREE > '3'", 1.0 / 3, 1e-9},
		{"NAME = 'x'", 0.1, 1e-9},
	}
	for _, tc := range cases {
		script, err := lang.Parse(`
PATTERN p { ?A; }
SELECT ID, COUNTP(p, SUBGRAPH(ID, 1)) FROM nodes WHERE ` + tc.where)
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		got := WhereSelectivity(script.Queries()[0].Where, s)
		if math.Abs(got-tc.want) > tc.tol {
			t.Fatalf("selectivity(%s) = %v want %v", tc.where, got, tc.want)
		}
	}
	if got := WhereSelectivity(nil, s); got != 1 {
		t.Fatalf("nil WHERE selectivity = %v", got)
	}
}

func TestOptimizeForcedAndPairSubstitution(t *testing.T) {
	g := gen.ErdosRenyi(50, 120, 31)
	s := graph.ComputeStats(g)
	script, err := lang.Parse(`
PATTERN e1 { ?A-?B; }
SELECT n1.ID, n2.ID, COUNTP(e1, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1))
FROM nodes AS n1, nodes AS n2`)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(script.Queries()[0], script.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	// Forcing ND-DIFF on a pairwise census substitutes ND-PVOT (no
	// pairwise ND-DIFF driver exists).
	p, err := Optimize(l, Env{Stats: s, Forced: NDDiff})
	if err != nil {
		t.Fatal(err)
	}
	if p.Algorithm(0) != NDPvot || p.Forced != NDPvot {
		t.Fatalf("pair forced ND-DIFF resolved to %s", p.Algorithm(0))
	}
	// Cost-based pair optimization never offers ND-DIFF.
	p2, err := Optimize(l, Env{Stats: s})
	if err != nil {
		t.Fatal(err)
	}
	if _, offered := p2.Choices[0].Costs[NDDiff]; offered {
		t.Fatal("ND-DIFF priced for a pairwise census")
	}
	// Pair focal estimate is n².
	if want := float64(s.Nodes) * float64(s.Nodes); p2.Focals != want {
		t.Fatalf("pair focals = %v want %v", p2.Focals, want)
	}
	// Optimizing without stats fails.
	if _, err := Optimize(l, Env{}); err == nil {
		t.Fatal("Optimize without stats must fail")
	}
}

func TestOptimizeBatchesForcedNDPvotMultiAgg(t *testing.T) {
	g := gen.ErdosRenyi(50, 120, 33)
	s := graph.ComputeStats(g)
	script, err := lang.Parse(`
PATTERN e1 { ?A-?B; }
PATTERN w2 { ?A-?B; ?B-?C; }
SELECT ID, COUNTP(e1, SUBGRAPH(ID, 1)), COUNTP(w2, SUBGRAPH(ID, 1)) FROM nodes`)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(script.Queries()[0], script.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(l, Env{Stats: s, Forced: NDPvot})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Batched {
		t.Fatal("forced ND-PVOT multi-aggregate census must batch")
	}
	for i := range p.Choices {
		if p.Algorithm(i) != NDPvot {
			t.Fatalf("choice %d = %s", i, p.Algorithm(i))
		}
	}
}

func TestCostNDBasSubpatternPaysGlobalMatch(t *testing.T) {
	// COUNTSP ND-BAS counts against the global match set, so it pays the
	// same global matching pass as the match-materializing drivers.
	g := gen.PreferentialAttachment(1000, 5, 1)
	s := graph.ComputeStats(g)
	matches, _, _ := EstimateMatches(trianglePattern(), "", s)
	in := CostInput{
		Matches:      matches,
		Focals:       float64(s.Nodes),
		NbrNodes:     s.NeighborhoodNodes(2),
		NbrEdges:     s.NeighborhoodEdges(2),
		Contain:      math.Min(1, s.NeighborhoodNodes(2)/float64(s.Nodes)),
		PatternEdges: 3,
		Stats:        s,
	}
	plain := in.Cost(NDBas)
	in.Subpattern = true
	if got, want := in.Cost(NDBas), plain+in.commonCost(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("COUNTSP ND-BAS cost = %v want %v", got, want)
	}
	// ND-DIFF always matches globally first.
	in.Subpattern = false
	in.Focals = 0
	if got, want := in.Cost(NDDiff), in.commonCost(); got != want {
		t.Fatalf("ND-DIFF cost with no focal nodes = %v want the global match %v", got, want)
	}
}
