package match

import (
	"math/rand"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/pattern"
)

// sliceSet is a minimal NodeSet over an explicit member list.
type sliceSet struct {
	nodes []graph.NodeID
	set   map[graph.NodeID]bool
}

func newSliceSet(nodes []graph.NodeID) sliceSet {
	s := sliceSet{nodes: nodes, set: make(map[graph.NodeID]bool, len(nodes))}
	for _, n := range nodes {
		s.set[n] = true
	}
	return s
}

func (s sliceSet) Contains(n graph.NodeID) bool { return s.set[n] }
func (s sliceSet) Members() []graph.NodeID      { return s.nodes }

func countViaEmbeddings(m CN, g *graph.Graph, p *pattern.Pattern, within NodeSet, subNodes []int) (int, int) {
	embs := m.embeddingsWithin(g, p, within)
	return len(Deduplicate(p, embs, subNodes)), len(embs)
}

// TestCountRunMatchesCountDistinct cross-checks the zero-alloc counting
// path against the materializing path across random graphs, patterns,
// masks, and subpattern identities — reusing one CountRun throughout, as
// census workers do.
func TestCountRunMatchesCountDistinct(t *testing.T) {
	patterns := []*pattern.Pattern{
		pattern.Clique("clq3", 3, nil),
		pattern.Clique("clq3l", 3, []string{"l0", "l1", "l0"}),
		pattern.Square("sqr", nil),
		pattern.Chain("ch4", 4, []string{"l0", "", "l1", ""}),
		pattern.Star("st4", 4, nil),
	}
	run := (CN{}).NewCountRun()
	rng := rand.New(rand.NewSource(5))
	for seed := int64(0); seed < 12; seed++ {
		g := randomLabeledGraph(seed, 20, 44, 2)
		// A random mask of about half the nodes, plus the nil mask.
		var masked []graph.NodeID
		for i := 0; i < g.NumNodes(); i++ {
			if rng.Intn(2) == 0 {
				masked = append(masked, graph.NodeID(i))
			}
		}
		masks := []NodeSet{nil, newSliceSet(masked)}
		for _, p := range patterns {
			for _, within := range masks {
				for _, subNodes := range [][]int{nil, {0}} {
					wantD, wantE := countViaEmbeddings(CN{}, g, p, within, subNodes)
					gotD, gotE := run.CountWithin(g, p, within, subNodes)
					if gotD != wantD || gotE != wantE {
						t.Fatalf("seed %d pattern %s mask=%v sub=%v: CountWithin = (%d, %d), want (%d, %d)",
							seed, p.Name, within != nil, subNodes, gotD, gotE, wantD, wantE)
					}
				}
			}
		}
	}
}

// TestHubKernelEquivalence forces the bitmap-AND path: a preferential-
// attachment graph large enough that its hubs clear HubDegreeThreshold,
// checked against brute force and against the scalar path on an
// identical graph whose hub cache is never built (directed graphs skip
// it, so instead compare against GQL which never uses bitmaps).
func TestHubKernelEquivalence(t *testing.T) {
	g := gen.PreferentialAttachment(400, 6, 3)
	gen.AssignLabels(g, 3, 4)
	g.BuildHubBitmaps()
	if g.HubCount() == 0 {
		t.Fatal("test graph has no hubs; raise density")
	}
	for _, p := range []*pattern.Pattern{
		pattern.Clique("clq3", 3, nil),
		pattern.Star("st4", 4, []string{"", "l0", "l1", "l2"}),
		pattern.Square("sqr", nil),
	} {
		cn := FindMatches(CN{}, g, p)
		gql := FindMatches(GQL{}, g, p)
		sameMatchSets(t, p, cn, gql, "CN(hub)", "GQL")

		run := (CN{}).NewCountRun()
		gotD, _ := run.CountWithin(g, p, nil, nil)
		if gotD != len(cn) {
			t.Fatalf("pattern %s: CountWithin distinct = %d, want %d", p.Name, gotD, len(cn))
		}
	}
}

// TestHubKernelMasked drives the hub path under a mask that excludes part
// of the hub's neighborhood, so the candidate bitmaps differ from the
// full adjacency.
func TestHubKernelMasked(t *testing.T) {
	g := gen.PreferentialAttachment(300, 5, 9)
	g.BuildHubBitmaps()
	var members []graph.NodeID
	for i := 0; i < g.NumNodes(); i += 2 {
		members = append(members, graph.NodeID(i))
	}
	within := newSliceSet(members)
	p := pattern.Clique("clq3", 3, nil)
	// Oracle: masked matching equals full matching filtered to embeddings
	// whose entire image lies in the mask (the subgraph is induced).
	var filtered []pattern.Match
	for _, m := range (GQL{}).Embeddings(g, p) {
		ok := true
		for _, n := range m {
			if !within.Contains(n) {
				ok = false
				break
			}
		}
		if ok {
			filtered = append(filtered, m)
		}
	}
	want := Deduplicate(p, filtered, nil)
	got := Deduplicate(p, (CN{}).embeddingsWithin(g, p, within), nil)
	sameMatchSets(t, p, got, want, "CN(hub,masked)", "GQL(filtered)")
}

// TestCountRunStopped verifies that a pre-tripped stop yields a clean,
// empty result instead of a partial or corrupted one.
func TestCountRunStopped(t *testing.T) {
	g := gen.PreferentialAttachment(200, 4, 1)
	p := pattern.Clique("clq3", 3, nil)
	run := CN{Stop: func() bool { return true }}.NewCountRun()
	d, e := run.CountWithin(g, p, nil, nil)
	full, _ := (CN{}).NewCountRun().CountWithin(g, p, nil, nil)
	if d > full || e < d {
		t.Fatalf("stopped run: distinct=%d embeddings=%d (full=%d)", d, e, full)
	}
	// The same run object must recover for subsequent un-stopped use.
	run2 := (CN{}).NewCountRun()
	d2, _ := run2.CountWithin(g, p, nil, nil)
	if d2 != full {
		t.Fatalf("fresh run after stop: %d, want %d", d2, full)
	}
}

func TestKeysetBasics(t *testing.T) {
	var k keyset
	k.reset()
	keys := [][]byte{[]byte("a"), []byte("bb"), []byte("a"), []byte(""), []byte("ccc"), []byte("bb")}
	wantNew := []bool{true, true, false, true, true, false}
	for i, key := range keys {
		if got := k.insert(key); got != wantNew[i] {
			t.Fatalf("insert %q (#%d) = %v, want %v", key, i, got, wantNew[i])
		}
	}
	if k.count != 4 {
		t.Fatalf("count = %d, want 4", k.count)
	}
	k.reset()
	if k.count != 0 {
		t.Fatalf("count after reset = %d", k.count)
	}
	if !k.insert([]byte("a")) {
		t.Fatal("reset did not clear membership")
	}
}

func TestKeysetGrowth(t *testing.T) {
	var k keyset
	k.reset()
	buf := make([]byte, 4)
	for i := 0; i < 1000; i++ {
		buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i>>8), byte(i>>16), 7
		if !k.insert(buf) {
			t.Fatalf("key %d reported duplicate", i)
		}
	}
	if k.count != 1000 {
		t.Fatalf("count = %d, want 1000", k.count)
	}
	for i := 0; i < 1000; i++ {
		buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i>>8), byte(i>>16), 7
		if k.insert(buf) {
			t.Fatalf("key %d lost after growth", i)
		}
	}
}

// BenchmarkCountRunSteadyState measures the per-focal allocation bill of
// the counting path the census drivers use.
func BenchmarkCountRunSteadyState(b *testing.B) {
	g := gen.PreferentialAttachment(1000, 5, 1)
	gen.AssignLabels(g, 4, 2)
	g.BuildCSR()
	g.BuildHubBitmaps()
	p := pattern.Clique("clq3", 3, nil)
	run := (CN{}).NewCountRun()
	run.CountWithin(g, p, nil, nil) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.CountWithin(g, p, nil, nil)
	}
}
