package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"egocensus/internal/centers"
	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/match"
	"egocensus/internal/pattern"
)

// referenceMatches is the match set M by definition: every embedding,
// deduplicated by key. It shares no code with the symmetry-broken global
// match the drivers use.
func referenceMatches(g *graph.Graph, spec Spec) []pattern.Match {
	return match.Deduplicate(spec.Pattern, match.CN{}.Embeddings(g, spec.Pattern), spec.subNodesForKey())
}

// bruteCounts computes the reference census directly from the definition:
// global matches, then per-focal containment of the anchor images.
func bruteCounts(t *testing.T, g *graph.Graph, spec Spec) []int64 {
	t.Helper()
	counts := make([]int64, g.NumNodes())
	matches := referenceMatches(g, spec)
	anchorIdx := spec.anchorNodes()
	for _, n := range spec.focalList(g) {
		reach := g.KHopNodes(n, spec.K)
		for _, m := range matches {
			inside := true
			for _, idx := range anchorIdx {
				if _, ok := reach[m[idx]]; !ok {
					inside = false
					break
				}
			}
			if inside {
				counts[n]++
			}
		}
	}
	return counts
}

func checkAllAlgorithms(t *testing.T, g *graph.Graph, spec Spec, opt Options) {
	t.Helper()
	want := bruteCounts(t, g, spec)
	for _, alg := range Algorithms {
		res, err := Count(g, spec, alg, opt)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for n := range want {
			focal := spec.Focal == nil
			if !focal {
				for _, f := range spec.Focal {
					if int(f) == n {
						focal = true
						break
					}
				}
			}
			if !focal {
				continue
			}
			if res.Counts[n] != want[n] {
				t.Fatalf("%s: node %d count = %d want %d (k=%d pattern=%s sub=%q)",
					alg, n, res.Counts[n], want[n], spec.K, spec.Pattern.Name, spec.Subpattern)
			}
		}
	}
}

func TestAllAlgorithmsTriangleSmall(t *testing.T) {
	g := gen.ErdosRenyi(30, 70, 3)
	for k := 0; k <= 3; k++ {
		spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: k}
		checkAllAlgorithms(t, g, spec, Options{})
	}
}

func TestAllAlgorithmsLabeled(t *testing.T) {
	g := gen.ErdosRenyi(40, 100, 5)
	gen.AssignLabels(g, 3, 6)
	spec := Spec{Pattern: pattern.Clique("clq3", 3, []string{"l0", "l1", "l2"}), K: 2}
	checkAllAlgorithms(t, g, spec, Options{})
}

func TestAllAlgorithmsSquare(t *testing.T) {
	g := gen.ErdosRenyi(25, 60, 7)
	spec := Spec{Pattern: pattern.Square("sqr", nil), K: 2}
	checkAllAlgorithms(t, g, spec, Options{})
}

func TestAllAlgorithmsWithFocalSubset(t *testing.T) {
	g := gen.ErdosRenyi(35, 80, 9)
	focal := []graph.NodeID{0, 3, 7, 11, 19, 34}
	spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 2, Focal: focal}
	checkAllAlgorithms(t, g, spec, Options{})
}

func TestAllAlgorithmsSingleNodePattern(t *testing.T) {
	// single_node census at k=1 counts nodes in the closed 1-neighborhood:
	// degree + 1 on simple graphs (the Section I degree reduction).
	g := gen.ErdosRenyi(30, 60, 11)
	spec := Spec{Pattern: pattern.SingleNode("n", ""), K: 1}
	res, err := Count(g, spec, NDPvot, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < g.NumNodes(); n++ {
		if got, want := res.Counts[n], int64(g.Degree(graph.NodeID(n))+1); got != want {
			t.Fatalf("node %d: single-node census %d want degree+1 = %d", n, got, want)
		}
	}
	checkAllAlgorithms(t, g, spec, Options{})
}

func TestEdgeCensusMatchesClusteringNumerator(t *testing.T) {
	// Counting single_edge at k=1 counts the edges among a node's closed
	// neighborhood: deg(n) + #(edges between neighbors) — the clustering
	// coefficient numerator plus the node's own incident edges.
	g := gen.ErdosRenyi(25, 60, 13)
	spec := Spec{Pattern: pattern.SingleEdge("e", nil), K: 1}
	res, err := Count(g, spec, PTOpt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		nbrs := map[graph.NodeID]bool{id: true}
		for _, h := range g.Out(id) {
			nbrs[h.To] = true
		}
		var want int64
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(graph.EdgeID(e))
			if nbrs[ed.From] && nbrs[ed.To] {
				want++
			}
		}
		if res.Counts[n] != want {
			t.Fatalf("node %d: edge census %d want %d", n, res.Counts[n], want)
		}
	}
}

func TestSubpatternCensus(t *testing.T) {
	// Coordinator triads counted at k=0: the count for node n is the
	// number of open same-label directed triads in which n is the middle
	// node (Table I row 4).
	g := graph.New(true)
	nodes := make([]graph.NodeID, 5)
	for i := range nodes {
		nodes[i] = g.AddNode()
		g.SetLabel(nodes[i], "org1")
	}
	g.AddEdge(nodes[0], nodes[1])
	g.AddEdge(nodes[1], nodes[2]) // 0->1->2 open: coordinator = 1
	g.AddEdge(nodes[3], nodes[1]) // 3->1->2 open: coordinator = 1
	g.AddEdge(nodes[2], nodes[4]) // 1->2->4 open: coordinator = 2

	spec := Spec{Pattern: pattern.CoordinatorTriad("triad"), Subpattern: "coordinator", K: 0}
	for _, alg := range Algorithms {
		res, err := Count(g, spec, alg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		wantCounts := map[graph.NodeID]int64{nodes[1]: 2, nodes[2]: 1}
		for n := 0; n < g.NumNodes(); n++ {
			if res.Counts[n] != wantCounts[graph.NodeID(n)] {
				t.Fatalf("%s: node %d = %d want %d", alg, n, res.Counts[n], wantCounts[graph.NodeID(n)])
			}
		}
	}
}

func TestSubpatternCensusRandom(t *testing.T) {
	g := gen.ErdosRenyi(25, 55, 17)
	p := pattern.Clique("clq3", 3, nil)
	if err := p.AddSubpattern("corner", []int{0}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 2; k++ {
		spec := Spec{Pattern: p, Subpattern: "corner", K: k}
		checkAllAlgorithms(t, g, spec, Options{})
	}
	// Far anchors: the pivot is 3 hops from the other anchor, so at k < 3
	// ND-PVOT takes its partial-containment branch; with all four nodes
	// as anchors, it checks a different anchor set at each distance.
	ch := pattern.Chain("ch4", 4, nil)
	if err := ch.AddSubpattern("ends", []int{0, 3}); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		checkAllAlgorithms(t, g, Spec{Pattern: ch, Subpattern: "ends", K: k}, Options{})
	}
	checkAllAlgorithms(t, g, Spec{Pattern: ch, K: 2}, Options{})
}

func TestAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(20+rng.Intn(15), 50+rng.Intn(30), seed)
		gen.AssignLabels(g, 1+rng.Intn(3), seed+1)
		k := rng.Intn(3)
		var p *pattern.Pattern
		switch rng.Intn(3) {
		case 0:
			p = pattern.Clique("clq3", 3, nil)
		case 1:
			p = pattern.SingleEdge("e", []string{"l0", ""})
		default:
			p = pattern.Chain("ch3", 3, nil)
		}
		spec := Spec{Pattern: p, K: k}
		want := bruteCounts(t, g, spec)
		opt := Options{Seed: seed}
		for _, alg := range Algorithms {
			res, err := Count(g, spec, alg, opt)
			if err != nil {
				t.Log(err)
				return false
			}
			for n := range want {
				if res.Counts[n] != want[n] {
					t.Logf("seed %d alg %s node %d: %d want %d (k=%d, pat=%s)",
						seed, alg, n, res.Counts[n], want[n], k, p.Name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestPTOptionVariants(t *testing.T) {
	g := gen.PreferentialAttachment(150, 3, 21)
	gen.AssignLabels(g, 3, 22)
	spec := Spec{Pattern: pattern.Clique("clq3", 3, []string{"l0", "l1", "l2"}), K: 2}
	want := bruteCounts(t, g, spec)
	variants := []Options{
		{},               // defaults: 12 deg centers, |M|/4 clusters
		{NumCenters: -1}, // centers disabled
		{NumCenters: 4, CenterStrategy: centers.Random, Seed: 5},
		{NoClustering: true},
		{RandomClustering: true, Clusters: 3, Seed: 6},
		{Clusters: 2},
		{KMeansIters: 1},
	}
	for i, opt := range variants {
		for _, alg := range []Algorithm{PTOpt, PTRnd} {
			res, err := Count(g, spec, alg, opt)
			if err != nil {
				t.Fatalf("variant %d %s: %v", i, alg, err)
			}
			for n := range want {
				if res.Counts[n] != want[n] {
					t.Fatalf("variant %d %s: node %d = %d want %d", i, alg, n, res.Counts[n], want[n])
				}
			}
		}
	}
}

func TestPTOptSeparateCenterIndexes(t *testing.T) {
	// Fig 4(f) isolates PMD centers from clustering centers.
	g := gen.PreferentialAttachment(120, 3, 31)
	gen.AssignLabels(g, 2, 32)
	spec := Spec{Pattern: pattern.Clique("clq3", 3, []string{"l0", "l0", "l1"}), K: 2}
	want := bruteCounts(t, g, spec)
	clusterIdx := centers.Build(g, 12, centers.ByDegree, 0)
	for _, npmd := range []int{0, 2, 8} {
		opt := Options{
			PMDCenters:     centers.Build(g, npmd, centers.ByDegree, 0),
			ClusterCenters: clusterIdx,
		}
		res, err := Count(g, spec, PTOpt, opt)
		if err != nil {
			t.Fatal(err)
		}
		for n := range want {
			if res.Counts[n] != want[n] {
				t.Fatalf("pmd centers %d: node %d = %d want %d", npmd, n, res.Counts[n], want[n])
			}
		}
	}
}

func TestCountValidation(t *testing.T) {
	g := gen.ErdosRenyi(10, 15, 1)
	if _, err := Count(g, Spec{Pattern: nil, K: 1}, NDPvot, Options{}); err == nil {
		t.Fatal("nil pattern should error")
	}
	p := pattern.Clique("clq3", 3, nil)
	if _, err := Count(g, Spec{Pattern: p, K: -1}, NDPvot, Options{}); err == nil {
		t.Fatal("negative k should error")
	}
	if _, err := Count(g, Spec{Pattern: p, K: 1, Subpattern: "nope"}, NDPvot, Options{}); err == nil {
		t.Fatal("unknown subpattern should error")
	}
	if _, err := Count(g, Spec{Pattern: p, K: 1, Focal: []graph.NodeID{99}}, NDPvot, Options{}); err == nil {
		t.Fatal("out-of-range focal should error")
	}
	if _, err := Count(g, Spec{Pattern: p, K: 1}, Algorithm("BOGUS"), Options{}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	disc := pattern.New("disc")
	disc.MustAddNode("A", "")
	disc.MustAddNode("B", "")
	if _, err := Count(g, Spec{Pattern: disc, K: 1}, NDPvot, Options{}); err == nil {
		t.Fatal("disconnected pattern should error")
	}
}

func TestNoMatches(t *testing.T) {
	g := gen.ErdosRenyi(20, 25, 41)
	spec := Spec{Pattern: pattern.Clique("clq5", 5, nil), K: 2}
	for _, alg := range Algorithms {
		res, err := Count(g, spec, alg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for n, c := range res.Counts {
			if c != 0 {
				t.Fatalf("%s: node %d = %d want 0", alg, n, c)
			}
		}
	}
}

func TestDirectedCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := graph.New(true)
	g.AddNodes(20)
	seen := map[[2]graph.NodeID]bool{}
	for i := 0; i < 45; i++ {
		a, b := graph.NodeID(rng.Intn(20)), graph.NodeID(rng.Intn(20))
		if a == b || seen[[2]graph.NodeID{a, b}] {
			continue
		}
		seen[[2]graph.NodeID{a, b}] = true
		g.AddEdge(a, b)
	}
	p := pattern.New("dpath")
	a := p.MustAddNode("A", "")
	b := p.MustAddNode("B", "")
	c := p.MustAddNode("C", "")
	p.MustAddEdge(a, b, true, false)
	p.MustAddEdge(b, c, true, false)
	spec := Spec{Pattern: p, K: 1}
	checkAllAlgorithms(t, g, spec, Options{})
}

func TestNumMatchesReported(t *testing.T) {
	g := gen.ErdosRenyi(25, 60, 61)
	spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 2}
	res, err := Count(g, spec, NDPvot, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(referenceMatches(g, spec))
	if res.NumMatches != want {
		t.Fatalf("NumMatches = %d want %d", res.NumMatches, want)
	}
	if want == 0 {
		t.Skip("instance has no triangles")
	}
}

// TestEmbeddingsPerMatch pins the embeddings-emitted counter: symmetry
// breaking leaves one CN embedding per COUNTP match on the unlabeled
// triangle and 4-clique (6 and 24 per match before) and on the labelled
// clq3, and the count reaches ExecStats and its JSON form.
func TestEmbeddingsPerMatch(t *testing.T) {
	g := gen.PreferentialAttachment(300, 5, 3)
	gen.AssignLabels(g, 4, 4)
	for _, p := range []*pattern.Pattern{
		pattern.Clique("clq3", 3, nil),
		pattern.Clique("clq4", 4, nil),
		pattern.Clique("clq3", 3, []string{"l0", "l1", "l2"}),
	} {
		res, err := Count(g, Spec{Pattern: p, K: 1}, NDPvot, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumMatches == 0 || res.Embeddings != res.NumMatches {
			t.Fatalf("%s %v: %d embeddings for %d matches, want one each", p.Name, p.Node(0).Label, res.Embeddings, res.NumMatches)
		}
	}
	e := NewEngine(g)
	e.Alg = PTOpt
	tables, err := e.Execute(`PATTERN clq3 { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL='l0']; [?B.LABEL='l1']; [?C.LABEL='l2']; }
SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 1)) FROM nodes`)
	if err != nil {
		t.Fatal(err)
	}
	st := tables[0].Stats
	if st.MatchSetSize == 0 || st.Embeddings != st.MatchSetSize {
		t.Fatalf("ExecStats: %d embeddings for %d matches", st.Embeddings, st.MatchSetSize)
	}
	if js := NewTableJSON(tables[0]); js.Stats.Embeddings != st.Embeddings {
		t.Fatalf("ExecStatsJSON.Embeddings = %d, want %d", js.Stats.Embeddings, st.Embeddings)
	}
}
