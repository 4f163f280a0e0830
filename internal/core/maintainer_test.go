package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/match"
	"egocensus/internal/pattern"
)

// follow registers spec on a maintainer pinned at w's current snapshot
// and applies every later publish synchronously, inside Publish.
func follow(t *testing.T, w *graph.ShardedWriter, spec Spec, opt Options) *Maintainer {
	t.Helper()
	mt := NewMaintainer(w.Snapshot())
	if err := mt.Register("q", spec, opt); err != nil {
		t.Fatal(err)
	}
	w.Subscribe(func(s *graph.Snapshot, d graph.Delta) {
		if err := mt.Apply(s, d); err != nil {
			t.Error(err)
		}
	})
	return mt
}

// checkMaintained compares the maintained counts and live match count
// with the wanted census.
func checkMaintained(t *testing.T, mt *Maintainer, want []int64, wantMatches int, context string) {
	t.Helper()
	got, _, err := mt.Counts("q")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: maintained %d nodes, want %d", context, len(got), len(want))
	}
	for n := range want {
		if got[n] != want[n] {
			t.Fatalf("%s: node %d maintained %d, want %d", context, n, got[n], want[n])
		}
	}
	if n, _ := mt.NumMatches("q"); n != wantMatches {
		t.Fatalf("%s: %d live matches, want %d", context, n, wantMatches)
	}
}

// checkIncrementalAgainstRecompute grows a graph through a writer, a
// batch of edges per publish, and compares the maintained counts with a
// full recomputation on every published snapshot.
func checkIncrementalAgainstRecompute(t *testing.T, directed bool, spec Spec, seed int64, nodes, edges int) {
	t.Helper()
	for _, batch := range []int{1, 5} {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(directed)
		g.AddNodes(nodes)
		if hasLabelConstraint(spec.Pattern) {
			gen.AssignLabels(g, 2, seed+1)
		}
		w := graph.NewShardedWriter(g, 1)
		mt := follow(t, w, spec, Options{Seed: seed})
		seen := map[[2]graph.NodeID]bool{}
		for added := 0; added < edges; {
			a := graph.NodeID(rng.Intn(nodes))
			b := graph.NodeID(rng.Intn(nodes))
			key := [2]graph.NodeID{a, b}
			if !directed && a > b {
				key = [2]graph.NodeID{b, a}
			}
			if a == b || seen[key] {
				continue
			}
			seen[key] = true
			w.AddEdge(a, b)
			if added++; added%batch != 0 && added < edges {
				continue
			}
			s, err := w.Publish()
			if err != nil {
				t.Fatal(err)
			}
			want, err := CountSnapshot(s, spec, PTOpt, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			checkMaintained(t, mt, want.Counts, want.NumMatches,
				fmt.Sprintf("batch %d, after %d edges (pattern %s k=%d)", batch, added, spec.Pattern.Name, spec.K))
		}
	}
}

func hasLabelConstraint(p *pattern.Pattern) bool {
	for i := 0; i < p.NumNodes(); i++ {
		if p.Node(i).Label != "" {
			return true
		}
	}
	return false
}

func TestIncrementalTriangle(t *testing.T) {
	for _, k := range []int{0, 1, 2} {
		spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: k}
		checkIncrementalAgainstRecompute(t, false, spec, int64(40+k), 12, 40)
	}
}

func TestIncrementalLabeled(t *testing.T) {
	spec := Spec{Pattern: pattern.Clique("clq3", 3, []string{"l0", "l0", "l1"}), K: 1}
	checkIncrementalAgainstRecompute(t, false, spec, 50, 12, 40)
}

// openPath is the path A-B-C with a forbidden chord A-C: inserting the
// chord kills matches.
func openPath() *pattern.Pattern {
	p := pattern.New("open")
	a := p.MustAddNode("A", "")
	b := p.MustAddNode("B", "")
	c := p.MustAddNode("C", "")
	p.MustAddEdge(a, b, false, false)
	p.MustAddEdge(b, c, false, false)
	p.MustAddEdge(a, c, false, true)
	return p
}

func TestIncrementalNegatedEdge(t *testing.T) {
	checkIncrementalAgainstRecompute(t, false, Spec{Pattern: openPath(), K: 1}, 60, 10, 35)
}

// cornerClique is clq3 with the COUNTSP subpattern "corner" on node 0.
func cornerClique(t *testing.T) *pattern.Pattern {
	p := pattern.Clique("clq3", 3, nil)
	if err := p.AddSubpattern("corner", []int{0}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestIncrementalSubpattern(t *testing.T) {
	spec := Spec{Pattern: cornerClique(t), Subpattern: "corner", K: 1}
	checkIncrementalAgainstRecompute(t, false, spec, 70, 10, 35)
}

func TestIncrementalDirectedTriad(t *testing.T) {
	spec := Spec{Pattern: pattern.CoordinatorTriad("triad"), Subpattern: "coordinator", K: 0}
	checkIncrementalAgainstRecompute(t, true, spec, 80, 10, 40)
}

func TestIncrementalDirectedPath(t *testing.T) {
	checkIncrementalAgainstRecompute(t, true, Spec{Pattern: directedPath("dpath", nil), K: 1}, 90, 10, 40)
}

func TestIncrementalAddNode(t *testing.T) {
	spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1}
	w := graph.NewShardedWriter(gen.ErdosRenyi(8, 14, 3), 1)
	mt := follow(t, w, spec, Options{})
	n := w.AddNode()
	if _, err := w.Publish(); err != nil {
		t.Fatal(err)
	}
	if counts, _, _ := mt.Counts("q"); int(n) != 8 || len(counts) != 9 || counts[8] != 0 {
		t.Fatal("AddNode bookkeeping wrong")
	}
	// Wire the new node into a triangle.
	w.AddEdge(n, 0)
	w.AddEdge(n, 1)
	s, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	want, err := CountSnapshot(s, spec, NDPvot, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, mt, want.Counts, want.NumMatches, "after wiring the new node")
}

// TestIncrementalGrowthRadius pins the growth part of the recount region
// at k-1 hops from a batch endpoint. The edge 1-4 births no match (node 1
// is labelled l2), but it brings the live match 2-4 within k = 2 of node
// 0, one hop from endpoint 1: only growth explains node 0's new count.
func TestIncrementalGrowthRadius(t *testing.T) {
	p := pattern.New("l0l1")
	p.MustAddEdge(p.MustAddNode("A", "l0"), p.MustAddNode("B", "l1"), false, false)
	spec := Spec{Pattern: p, K: 2}
	g := graph.New(false)
	g.AddNodes(5)
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 3}, {3, 2}, {2, 4}} {
		g.AddEdge(e[0], e[1])
	}
	for n, l := range map[graph.NodeID]string{0: "l2", 1: "l2", 2: "l0", 3: "l2", 4: "l1"} {
		g.SetLabel(n, l)
	}
	w := graph.NewShardedWriter(g, 1)
	mt := follow(t, w, spec, Options{})
	w.AddEdge(1, 4)
	s, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	want, matches := bruteCensus(s.Graph(), spec)
	if want[0] != 1 {
		t.Fatalf("oracle counts node 0 as %d, want 1", want[0])
	}
	checkMaintained(t, mt, want, matches, "after adding 1-4")
}

func TestIncrementalValidation(t *testing.T) {
	mt := NewMaintainer(graph.Freeze(gen.ErdosRenyi(5, 8, 1)))
	if err := mt.Register("n", Spec{Pattern: pattern.SingleNode("n", ""), K: 1}, Options{}); err == nil {
		t.Fatal("edge-less pattern should be rejected")
	}
	spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1, Focal: []graph.NodeID{0}}
	if err := mt.Register("f", spec, Options{}); err == nil {
		t.Fatal("focal restriction should be rejected")
	}
	if err := mt.Register("q", Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1}, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := mt.Register("q", Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1}, Options{}); err == nil {
		t.Fatal("duplicate name should be rejected")
	}
}

func TestIncrementalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(false)
		n := 8 + rng.Intn(6)
		g.AddNodes(n)
		spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1 + rng.Intn(2)}
		w := graph.NewShardedWriter(g, 1)
		mt := follow(t, w, spec, Options{Seed: seed})
		seen := map[[2]graph.NodeID]bool{}
		for i := 0; i < 25; i++ {
			a := graph.NodeID(rng.Intn(n))
			b := graph.NodeID(rng.Intn(n))
			if a > b {
				a, b = b, a
			}
			if a == b || seen[[2]graph.NodeID{a, b}] {
				continue
			}
			seen[[2]graph.NodeID{a, b}] = true
			w.AddEdge(a, b)
			if rng.Intn(3) == 0 {
				w.Publish()
			}
		}
		s, err := w.Publish()
		if err != nil {
			t.Log(err)
			return false
		}
		want, err := CountSnapshot(s, spec, NDPvot, Options{})
		if err != nil {
			t.Log(err)
			return false
		}
		got, _, _ := mt.Counts("q")
		if !slices.Equal(got, want.Counts) {
			t.Logf("seed %d: maintained %v, recount %v", seed, got, want.Counts)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// bruteCensus is the test oracle, sharing no code with CN or the census
// drivers: match.Brute enumerates every embedding of the pattern,
// Deduplicate keeps one per match (per subpattern image for COUNTSP),
// and each node counts the matches whose anchor images — every pattern
// node for COUNTP, the subpattern's for COUNTSP — lie in its k-hop
// neighborhood.
func bruteCensus(g *graph.Graph, spec Spec) (counts []int64, matches int) {
	var sub []int
	anchors := make([]int, spec.Pattern.NumNodes())
	for i := range anchors {
		anchors[i] = i
	}
	if spec.Subpattern != "" {
		sub, _ = spec.Pattern.Subpattern(spec.Subpattern)
		anchors = sub
	}
	ms := match.Deduplicate(spec.Pattern, match.Brute{}.Embeddings(g, spec.Pattern), sub)
	counts = make([]int64, g.NumNodes())
	s := graph.AcquireScratch(g.NumNodes())
	defer s.Release()
	for n := range counts {
		reach := g.KHop(graph.NodeID(n), spec.K, s)
		for _, m := range ms {
			if !slices.ContainsFunc(anchors, func(a int) bool { return !reach.Contains(m[a]) }) {
				counts[n]++
			}
		}
	}
	return counts, len(ms)
}

// oracleGraph is a sparse random graph on 100 nodes, where the stream
// lands, plus a planted 16-node clique (a tournament when directed) that
// the stream never touches: its many matches stay live and unaffected, so
// the incremental rules, not a rebuild, absorb most batches.
func oracleGraph(directed bool, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(directed)
	g.AddNodes(116)
	for i := 0; i < 150; i++ {
		if a, b := graph.NodeID(rng.Intn(100)), graph.NodeID(rng.Intn(100)); a != b {
			g.AddEdge(a, b)
		}
	}
	for a := graph.NodeID(100); a < 116; a++ {
		for b := a + 1; b < 116; b++ {
			g.AddEdge(a, b)
		}
	}
	gen.AssignLabels(g, 2, seed+1)
	return g
}

// TestStressMaintainerOracle streams random batches of 1, 16 and 256
// edges (with some new nodes, and one label change halfway) into a
// writer and checks, at every epoch, that a maintainer's counts equal
// both the brute-force oracle and a forced ND-PVOT census of the
// published snapshot. The specs cover a triangle at k = 1 and 2, a
// labelled clq3, a negated edge, a directed pattern and COUNTSP.
func TestStressMaintainerOracle(t *testing.T) {
	cases := []struct {
		name     string
		directed bool
		spec     Spec
	}{
		{"triangle", false, Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1}},
		{"triangle-k2", false, Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 2}},
		{"labelled", false, Spec{Pattern: pattern.Clique("clq3", 3, []string{"l0", "l0", "l1"}), K: 1}},
		{"negated", false, Spec{Pattern: openPath(), K: 1}},
		{"directed", true, Spec{Pattern: directedPath("dpath", nil), K: 1}},
		{"countsp", false, Spec{Pattern: cornerClique(t), Subpattern: "corner", K: 1}},
	}
	for ci, c := range cases {
		for _, batch := range []int{1, 16, 256} {
			t.Run(fmt.Sprintf("%s/batch=%d", c.name, batch), func(t *testing.T) {
				seed := int64(100*ci + batch)
				rng := rand.New(rand.NewSource(seed))
				w := graph.NewShardedWriter(oracleGraph(c.directed, seed), 1)
				mt := follow(t, w, c.spec, Options{Seed: seed})
				epochs := max(2, min(16, 96/batch))
				// The stream lands on nodes 0..99 and on the nodes it adds
				// (116 on); self-loops are allowed.
				added := 0
				pick := func() graph.NodeID {
					if i := rng.Intn(100 + added); i >= 100 {
						return graph.NodeID(i + 16)
					} else {
						return graph.NodeID(i)
					}
				}
				for e := 0; e < epochs; e++ {
					for i := 0; i < batch; i++ {
						if rng.Intn(16) == 0 {
							n := w.AddNode()
							added++
							w.AddEdge(n, pick())
							continue
						}
						w.AddEdge(pick(), pick())
					}
					if e == epochs/2 {
						n := graph.NodeID(rng.Intn(100))
						flip := map[string]string{"l0": "l1", "l1": "l0"}
						w.SetLabel(n, flip[w.Snapshot().Graph().LabelString(n)])
					}
					s, err := w.Publish()
					if err != nil {
						t.Fatal(err)
					}
					oracle, matches := bruteCensus(s.Graph(), c.spec)
					checkMaintained(t, mt, oracle, matches, fmt.Sprintf("epoch %d vs oracle", s.Epoch()))
					pvot, err := CountSnapshot(s, c.spec, NDPvot, Options{Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(pvot.Counts, oracle) {
						t.Fatalf("epoch %d: ND-PVOT census diverges from the oracle", s.Epoch())
					}
				}
			})
		}
	}
}
