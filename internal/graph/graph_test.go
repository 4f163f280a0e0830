package graph

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func path(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(false)
	g.AddNodes(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

func TestAddNodeEdge(t *testing.T) {
	g := New(false)
	a := g.AddNode()
	b := g.AddNode()
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d,%d want 0,1", a, b)
	}
	e := g.AddEdge(a, b)
	if e != 0 {
		t.Fatalf("edge id = %d want 0", e)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts = %d,%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Fatal("undirected edge should be visible from both endpoints")
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Fatalf("degrees = %d,%d", g.Degree(a), g.Degree(b))
	}
}

func TestDirectedEdges(t *testing.T) {
	g := New(true)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b)
	if !g.HasEdge(a, b) {
		t.Fatal("missing a->b")
	}
	if g.HasEdge(b, a) {
		t.Fatal("unexpected b->a")
	}
	if len(g.Out(a)) != 1 || len(g.In(b)) != 1 || len(g.In(a)) != 0 {
		t.Fatal("adjacency lists wrong")
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Fatalf("directed degree = %d,%d", g.Degree(a), g.Degree(b))
	}
}

func TestFindEdge(t *testing.T) {
	g := path(t, 3)
	if g.FindEdge(0, 1) != 0 || g.FindEdge(1, 2) != 1 {
		t.Fatal("FindEdge returned wrong IDs")
	}
	if g.FindEdge(0, 2) != -1 {
		t.Fatal("FindEdge should return -1 for missing edge")
	}
}

func TestLabels(t *testing.T) {
	g := New(false)
	n := g.AddNode()
	if g.Label(n) != NoLabel || g.LabelString(n) != "" {
		t.Fatal("fresh node should be unlabeled")
	}
	g.SetLabel(n, "author")
	if g.LabelString(n) != "author" {
		t.Fatalf("label = %q", g.LabelString(n))
	}
	m := g.AddNode()
	g.SetNodeAttr(m, LabelAttr, "author")
	if g.Label(m) != g.Label(n) {
		t.Fatal("labels should intern to the same ID")
	}
}

func TestNodeAttrs(t *testing.T) {
	g := New(false)
	n := g.AddNode()
	if _, ok := g.NodeAttr(n, "x"); ok {
		t.Fatal("unset attr should report ok=false")
	}
	g.SetNodeAttr(n, "x", "1")
	if v, ok := g.NodeAttr(n, "x"); !ok || v != "1" {
		t.Fatalf("attr = %q,%v", v, ok)
	}
	g.SetLabel(n, "L")
	attrs := g.NodeAttrs(n)
	if attrs["x"] != "1" || attrs[LabelAttr] != "L" {
		t.Fatalf("attrs = %v", attrs)
	}
	if v, ok := g.NodeAttr(n, LabelAttr); !ok || v != "L" {
		t.Fatalf("label via NodeAttr = %q,%v", v, ok)
	}
	g.SetNodeAttr(n, LabelAttr, "M")
	if m := g.NodeAttrMap(n); len(m) != 1 || m["x"] != "1" {
		t.Fatalf("NodeAttrMap = %v, want only x=1 (the label lives in the label column)", m)
	}
	if m := g.NodeAttrMap(g.AddNode()); m != nil {
		t.Fatalf("NodeAttrMap of a bare node = %v, want nil", m)
	}
}

func TestEdgeAttrs(t *testing.T) {
	g := path(t, 2)
	e := EdgeID(0)
	if _, ok := g.EdgeAttr(e, "sign"); ok {
		t.Fatal("unset edge attr should report ok=false")
	}
	if m := g.EdgeAttrMap(e); m != nil {
		t.Fatalf("EdgeAttrMap of a bare edge = %v, want nil", m)
	}
	g.SetEdgeAttr(e, "sign", "-")
	if v, ok := g.EdgeAttr(e, "sign"); !ok || v != "-" {
		t.Fatalf("edge attr = %q,%v", v, ok)
	}
	if got := g.EdgeAttrMap(e); len(got) != 1 || got["sign"] != "-" {
		t.Fatalf("EdgeAttrMap = %v", got)
	}
}

func TestNeighbors(t *testing.T) {
	g := New(true)
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(a, b)
	g.AddEdge(c, a)
	got := g.Neighbors(a)
	want := []NodeID{b, c}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(a) = %v want %v", got, want)
	}
}

func TestProfile(t *testing.T) {
	g := New(false)
	a, b, c, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.SetLabel(b, "x")
	g.SetLabel(c, "x")
	g.SetLabel(d, "y")
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(a, d)
	p := g.NodeProfile(a)
	lx, _ := g.Labels().Lookup("x")
	ly, _ := g.Labels().Lookup("y")
	if p[lx] != 2 || p[ly] != 1 || p[NoLabel] != 0 {
		t.Fatalf("profile = %v", p)
	}
}

func TestProfileContains(t *testing.T) {
	cases := []struct {
		p, sub Profile
		want   bool
	}{
		{Profile{0, 2, 1}, Profile{0, 1, 1}, true},
		{Profile{0, 2, 1}, Profile{0, 3, 0}, false},
		{Profile{0, 2}, Profile{0, 0, 1}, false},
		{Profile{0, 2}, Profile{0, 0, 0}, true},
		{Profile{0, 2, 1}, Profile{}, true},
	}
	for i, c := range cases {
		if got := c.p.Contains(c.sub); got != c.want {
			t.Errorf("case %d: Contains = %v want %v", i, got, c.want)
		}
	}
}

func TestProfileInvalidatedOnMutation(t *testing.T) {
	g := New(false)
	a, b := g.AddNode(), g.AddNode()
	g.SetLabel(b, "x")
	_ = g.NodeProfile(a)
	c := g.AddNode()
	g.SetLabel(c, "x")
	g.AddEdge(a, c)
	lx, _ := g.Labels().Lookup("x")
	if got := g.NodeProfile(a)[lx]; got != 1 {
		t.Fatalf("profile after mutation = %d want 1", got)
	}
	g.AddEdge(a, b)
	if got := g.NodeProfile(a)[lx]; got != 2 {
		t.Fatalf("profile after second edge = %d want 2", got)
	}
}

func TestBFSOrderAndDepth(t *testing.T) {
	g := path(t, 5)
	var order []NodeID
	var depths []int
	g.BFS(0, 2, func(n NodeID, d int) bool {
		order = append(order, n)
		depths = append(depths, d)
		return true
	})
	if !reflect.DeepEqual(order, []NodeID{0, 1, 2}) {
		t.Fatalf("order = %v", order)
	}
	if !reflect.DeepEqual(depths, []int{0, 1, 2}) {
		t.Fatalf("depths = %v", depths)
	}
}

func TestBFSEarlyStop(t *testing.T) {
	g := path(t, 5)
	count := 0
	g.BFS(0, -1, func(n NodeID, d int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("visited %d nodes, want 2", count)
	}
}

func TestBFSDirectedIgnoresDirection(t *testing.T) {
	g := New(true)
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(b, a) // a reachable only via incoming edge
	g.AddEdge(b, c)
	reach := g.KHopNodes(a, 2)
	if len(reach) != 3 || reach[c] != 2 {
		t.Fatalf("reach = %v", reach)
	}
}

func TestKHopNodes(t *testing.T) {
	g := path(t, 6)
	reach := g.KHopNodes(2, 2)
	want := map[NodeID]int{0: 2, 1: 1, 2: 0, 3: 1, 4: 2}
	if !reflect.DeepEqual(reach, want) {
		t.Fatalf("KHopNodes = %v want %v", reach, want)
	}
}

// TestReachIntersect checks N_k(a) ∩ N_k(b) on a path: the members are the
// nodes both balls hold, in a's BFS order, each at the farther of its two
// distances; the dropped nodes are no longer contained; and the next
// traversal on the same scratch starts clean.
func TestReachIntersect(t *testing.T) {
	g := path(t, 8)
	sa, sb := AcquireScratch(g.NumNodes()), AcquireScratch(g.NumNodes())
	defer sa.Release()
	defer sb.Release()
	r := g.KHop(2, 2, sa).Intersect(g.KHop(5, 2, sb))
	if want := []NodeID{3, 4}; !reflect.DeepEqual(r.Nodes, want) {
		t.Fatalf("members = %v, want %v", r.Nodes, want)
	}
	for n, want := range map[NodeID]int32{3: 2, 4: 2, 0: -1, 1: -1, 2: -1, 5: -1, 6: -1, 7: -1} {
		if got := r.Dist(n); got != want {
			t.Fatalf("Dist(%d) = %d, want %d", n, got, want)
		}
		if r.Contains(n) != (want >= 0) {
			t.Fatalf("Contains(%d) = %v, want %v", n, r.Contains(n), want >= 0)
		}
	}
	if r := g.KHop(2, 2, sa).Intersect(g.KHop(7, 1, sb)); r.Len() != 0 || r.Contains(2) {
		t.Fatalf("disjoint balls intersect in %v", r.Nodes)
	}
	next := g.KHop(0, 1, sa)
	if want := []NodeID{0, 1}; !reflect.DeepEqual(next.Nodes, want) || next.Contains(3) || next.Dist(1) != 1 {
		t.Fatalf("next traversal on the scratch: nodes %v, Contains(3) %v, Dist(1) %d", next.Nodes, next.Contains(3), next.Dist(1))
	}
}

func TestDistances(t *testing.T) {
	g := path(t, 4)
	iso := g.AddNode()
	d := g.Distances(0)
	want := []int32{0, 1, 2, 3, -1}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("Distances = %v want %v", d, want)
	}
	if g.HopDistance(0, 3, -1) != 3 {
		t.Fatal("HopDistance wrong")
	}
	if g.HopDistance(0, iso, -1) != -1 {
		t.Fatal("HopDistance to isolated node should be -1")
	}
	if g.HopDistance(0, 3, 2) != -1 {
		t.Fatal("HopDistance beyond cutoff should be -1")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(false)
	n := make([]NodeID, 4)
	for i := range n {
		n[i] = g.AddNode()
	}
	g.SetLabel(n[1], "x")
	g.AddEdge(n[0], n[1])
	e := g.AddEdge(n[1], n[2])
	g.SetEdgeAttr(e, "w", "5")
	g.AddEdge(n[2], n[3])
	sg := g.InducedSubgraph([]NodeID{n[0], n[1], n[2]})
	if sg.G.NumNodes() != 3 || sg.G.NumEdges() != 2 {
		t.Fatalf("subgraph size = %d nodes %d edges", sg.G.NumNodes(), sg.G.NumEdges())
	}
	l1 := sg.ToLocal[n[1]]
	if sg.G.LabelString(l1) != "x" {
		t.Fatal("label not copied")
	}
	le := sg.G.FindEdge(sg.ToLocal[n[1]], sg.ToLocal[n[2]])
	if le < 0 {
		le = sg.G.FindEdge(sg.ToLocal[n[2]], sg.ToLocal[n[1]])
	}
	if v, _ := sg.G.EdgeAttr(le, "w"); v != "5" {
		t.Fatal("edge attr not copied")
	}
	if sg.ToGlobal[l1] != n[1] {
		t.Fatal("ToGlobal inconsistent")
	}
}

func TestEgoSubgraph(t *testing.T) {
	g := path(t, 6)
	sg := g.EgoSubgraph(2, 1)
	if sg.G.NumNodes() != 3 || sg.G.NumEdges() != 2 {
		t.Fatalf("S(2,1) = %d nodes %d edges", sg.G.NumNodes(), sg.G.NumEdges())
	}
}

func TestEgoIntersectionUnion(t *testing.T) {
	g := path(t, 5)
	inter := g.EgoIntersection(0, 4, 2)
	if inter.G.NumNodes() != 1 { // only node 2
		t.Fatalf("intersection nodes = %d want 1", inter.G.NumNodes())
	}
	uni := g.EgoUnion(0, 4, 2)
	if uni.G.NumNodes() != 5 || uni.G.NumEdges() != 4 {
		t.Fatalf("union = %d nodes %d edges", uni.G.NumNodes(), uni.G.NumEdges())
	}
}

func TestClone(t *testing.T) {
	g := path(t, 3)
	g.SetLabel(0, "a")
	g.SetNodeAttr(1, "k", "v")
	g.SetEdgeAttr(0, "w", "1")
	c := g.Clone()
	c.AddEdge(0, 2)
	c.SetNodeAttr(1, "k", "other")
	if g.HasEdge(0, 2) {
		t.Fatal("clone mutation leaked into original")
	}
	if v, _ := g.NodeAttr(1, "k"); v != "v" {
		t.Fatal("clone attr mutation leaked")
	}
	if c.LabelString(0) != "a" {
		t.Fatal("label not cloned")
	}
}

func TestDirectedClone(t *testing.T) {
	g := New(true)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b)
	c := g.Clone()
	if !c.Directed() || !c.HasEdge(a, b) || c.HasEdge(b, a) {
		t.Fatal("directed clone wrong")
	}
}

// randomGraph builds a simple undirected graph from a seed.
func randomGraph(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(false)
	g.AddNodes(n)
	seen := map[[2]NodeID]bool{}
	for i := 0; i < m; i++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]NodeID{a, b}] {
			continue
		}
		seen[[2]NodeID{a, b}] = true
		g.AddEdge(a, b)
	}
	return g
}

// Property: BFS distances match Distances() for every reachable node.
func TestBFSMatchesDistancesProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 60)
		src := NodeID(uint64(seed) % 30)
		ref := g.Distances(src)
		ok := true
		g.BFS(src, -1, func(n NodeID, d int) bool {
			if int32(d) != ref[n] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ego subgraph's edge set equals the edges of g with both
// endpoints within k hops.
func TestEgoSubgraphEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 25, 50)
		src := NodeID(int(uint64(seed)>>8) % 25)
		k := int(uint64(seed)>>16)%3 + 1
		sg := g.EgoSubgraph(src, k)
		reach := g.KHopNodes(src, k)
		want := 0
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(EdgeID(e))
			if _, ok := reach[ed.From]; !ok {
				continue
			}
			if _, ok := reach[ed.To]; !ok {
				continue
			}
			want++
		}
		return sg.G.NumEdges() == want && sg.G.NumNodes() == len(reach)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadIDs(t *testing.T) {
	g := New(false)
	g.AddNode()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("AddEdge", func() { g.AddEdge(0, 5) })
	mustPanic("Out", func() { g.Out(-1) })
	mustPanic("Edge", func() { g.Edge(0) })
	mustPanic("EdgeAttr", func() { g.EdgeAttr(3, "x") })
	mustPanic("FromParts endpoint", func() { FromParts(false, NewLabelDict(), make([]LabelID, 2), []Edge{{0, 2}}) })
	mustPanic("FromParts label", func() { FromParts(true, NewLabelDict(), []LabelID{1}, nil) })
}

// TestFromPartsMatchesAddEdge checks the one-pass FromParts against an
// AddNodes + AddEdge loop over the same edges, self loops and parallel
// edges included, and that every row is capped at its length.
func TestFromPartsMatchesAddEdge(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		const n = 25
		ref := New(directed)
		ref.AddNodes(n)
		edges := make([]Edge, 120)
		for i := range edges {
			edges[i] = Edge{From: NodeID(rng.Intn(n)), To: NodeID(rng.Intn(n))}
			ref.AddEdge(edges[i].From, edges[i].To)
		}
		for _, v := range []NodeID{2, 9, 17} {
			ref.SetLabel(v, "l"+string(rune('a'+v%3)))
		}
		labels := append([]LabelID(nil), ref.labels...)
		g := FromParts(directed, ref.labelDict.Clone(), labels, append([]Edge(nil), edges...))
		if !reflect.DeepEqual(g.out, ref.out) || !reflect.DeepEqual(g.in, ref.in) || !reflect.DeepEqual(g.edgs, ref.edgs) {
			t.Fatalf("directed=%v: rows differ from the AddEdge reference", directed)
		}
		for v := 0; v < n; v++ {
			if g.LabelString(NodeID(v)) != ref.LabelString(NodeID(v)) {
				t.Fatalf("directed=%v: node %d label %q, want %q", directed, v, g.LabelString(NodeID(v)), ref.LabelString(NodeID(v)))
			}
		}
		for _, rows := range [][][]Half{g.out, g.in} {
			for v, row := range rows {
				if cap(row) != len(row) {
					t.Fatalf("directed=%v: row %d has cap %d > len %d", directed, v, cap(row), len(row))
				}
			}
		}
		// The out and in rows share one row array: a node added later
		// must not overwrite the first in row.
		g.AddEdge(g.AddNode(), 0)
		ref.AddEdge(ref.AddNode(), 0)
		if !reflect.DeepEqual(g.out, ref.out) || !reflect.DeepEqual(g.in, ref.in) {
			t.Fatalf("directed=%v: rows differ after AddNode + AddEdge", directed)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(false)
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.SetLabel(a, "x")
	g.SetNodeAttr(b, "highlight", "red")
	g.AddEdge(a, b)
	e := g.AddEdge(b, c)
	g.SetEdgeAttr(e, "sign", "-")
	var buf strings.Builder
	if err := g.WriteDOT(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{`graph "test"`, "0 -- 1", "style=dashed", "0:x", "fillcolor=\"red\""} {
		if !strings.Contains(out, frag) {
			t.Fatalf("DOT missing %q:\n%s", frag, out)
		}
	}
	d := New(true)
	x, y := d.AddNode(), d.AddNode()
	d.AddEdge(x, y)
	buf.Reset()
	if err := d.WriteDOT(&buf, "d"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") || !strings.Contains(buf.String(), "0 -> 1") {
		t.Fatalf("directed DOT wrong:\n%s", buf.String())
	}
}
