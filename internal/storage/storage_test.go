package storage

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
)

func sampleGraph() *graph.Graph {
	g := gen.PreferentialAttachment(120, 3, 7)
	gen.AssignLabels(g, 4, 8)
	gen.AssignSigns(g, 0.3, 9)
	g.SetNodeAttr(0, "name", "hub")
	g.SetNodeAttr(5, "age", "42")
	return g
}

func roundTrip(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.egoc")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

func assertGraphsEqual(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.Directed() != b.Directed() || a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: %v/%d/%d vs %v/%d/%d",
			a.Directed(), a.NumNodes(), a.NumEdges(), b.Directed(), b.NumNodes(), b.NumEdges())
	}
	for n := 0; n < a.NumNodes(); n++ {
		id := graph.NodeID(n)
		if a.LabelString(id) != b.LabelString(id) {
			t.Fatalf("node %d label %q vs %q", n, a.LabelString(id), b.LabelString(id))
		}
		aa, ba := a.NodeAttrs(id), b.NodeAttrs(id)
		if len(aa) != len(ba) {
			t.Fatalf("node %d attrs %v vs %v", n, aa, ba)
		}
		for k, v := range aa {
			if ba[k] != v {
				t.Fatalf("node %d attr %s: %q vs %q", n, k, v, ba[k])
			}
		}
		for dir, rows := range [][2][]graph.Half{{a.Out(id), b.Out(id)}, {a.In(id), b.In(id)}} {
			ao, bo := rows[0], rows[1]
			if len(ao) != len(bo) {
				t.Fatalf("node %d row %d degree %d vs %d", n, dir, len(ao), len(bo))
			}
			for i := range ao {
				if ao[i] != bo[i] {
					t.Fatalf("node %d row %d half-edge %d: %v vs %v", n, dir, i, ao[i], bo[i])
				}
			}
		}
	}
	for e := 0; e < a.NumEdges(); e++ {
		id := graph.EdgeID(e)
		if a.Edge(id) != b.Edge(id) {
			t.Fatalf("edge %d endpoints differ", e)
		}
		aa, ba := a.EdgeAttrMap(id), b.EdgeAttrMap(id)
		for k, v := range aa {
			if ba[k] != v {
				t.Fatalf("edge %d attr %s: %q vs %q", e, k, v, ba[k])
			}
		}
		if len(aa) != len(ba) {
			t.Fatalf("edge %d attrs differ", e)
		}
	}
}

func TestRoundTripUndirected(t *testing.T) {
	g := sampleGraph()
	assertGraphsEqual(t, g, roundTrip(t, g))
}

func TestRoundTripDirected(t *testing.T) {
	g := graph.New(true)
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.SetLabel(a, "x")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, a)
	g.SetEdgeAttr(0, "w", "3")
	assertGraphsEqual(t, g, roundTrip(t, g))
}

func TestRoundTripEmptyAndTiny(t *testing.T) {
	assertGraphsEqual(t, graph.New(false), roundTrip(t, graph.New(false)))
	one := graph.New(false)
	one.AddNode()
	assertGraphsEqual(t, one, roundTrip(t, one))
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(30, 60, seed)
		gen.AssignLabels(g, 3, seed+1)
		g2 := roundTrip(t, g)
		if g.NumNodes() != g2.NumNodes() || g.NumEdges() != g2.NumEdges() {
			return false
		}
		for n := 0; n < g.NumNodes(); n++ {
			if g.LabelString(graph.NodeID(n)) != g2.LabelString(graph.NodeID(n)) {
				return false
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			if g.Edge(graph.EdgeID(e)) != g2.Edge(graph.EdgeID(e)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreOnDemandAccess(t *testing.T) {
	g := sampleGraph()
	path := filepath.Join(t.TempDir(), "g.egoc")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumNodes() != g.NumNodes() || st.NumEdges() != g.NumEdges() || st.Directed() != g.Directed() {
		t.Fatal("store header mismatch")
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		if st.Label(id) != g.Label(id) {
			t.Fatalf("node %d label mismatch", n)
		}
		out, in, err := st.Adjacency(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(g.Out(id)) {
			t.Fatalf("node %d out mismatch", n)
		}
		for i, h := range g.Out(id) {
			if out[i] != h {
				t.Fatalf("node %d half %d mismatch", n, i)
			}
		}
		if in != nil {
			t.Fatal("undirected store should have nil in-lists")
		}
	}
	from, to, err := st.EdgeEndpoints(0)
	if err != nil || (graph.Edge{From: from, To: to}) != g.Edge(0) {
		t.Fatalf("edge endpoints via store: %d %d %v", from, to, err)
	}
	// Attributes are served by Materialize.
	mg, err := st.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := mg.NodeAttr(0, "name"); v != "hub" {
		t.Fatalf("node attrs via store: %v", mg.NodeAttrs(0))
	}
	attrs := mg.NodeAttrs(1)
	delete(attrs, graph.LabelAttr)
	if len(attrs) != 0 {
		t.Fatalf("empty node attrs via store: %v", attrs)
	}
	if v, _ := mg.EdgeAttr(0, "sign"); v != "+" && v != "-" {
		t.Fatalf("edge attrs via store: %v", mg.EdgeAttrMap(0))
	}
}

func TestStoreCacheBounded(t *testing.T) {
	g := gen.PreferentialAttachment(2000, 5, 3)
	path := filepath.Join(t.TempDir(), "g.egoc")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, 4) // tiny cache forces eviction
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for n := 0; n < st.NumNodes(); n++ {
		if _, _, err := st.Adjacency(graph.NodeID(n)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats.Misses == 0 || st.Stats.Hits == 0 {
		t.Fatalf("cache stats implausible: %+v", st.Stats)
	}
	if len(st.cache.entries) > 4 {
		t.Fatalf("cache exceeded capacity: %d", len(st.cache.entries))
	}
	// Re-reading the same node should hit the cache.
	before := st.Stats.Hits
	if _, _, err := st.Adjacency(graph.NodeID(st.NumNodes() - 1)); err != nil {
		t.Fatal(err)
	}
	if st.Stats.Hits == before {
		t.Fatal("expected a cache hit on repeat access")
	}
}

func TestCorruptionDetected(t *testing.T) {
	g := sampleGraph()
	path := filepath.Join(t.TempDir(), "g.egoc")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil {
		t.Fatal("corrupted file should fail checksum")
	}
}

func TestBadMagicAndTruncation(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.egoc")
	if err := os.WriteFile(bad, []byte("not a graph"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad, 0); err == nil {
		t.Fatal("tiny file should fail")
	}
	g := sampleGraph()
	path := filepath.Join(dir, "g.egoc")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil {
		t.Fatal("truncated file should fail")
	}
}

func TestStoreRangeErrors(t *testing.T) {
	g := sampleGraph()
	path := filepath.Join(t.TempDir(), "g.egoc")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.Adjacency(graph.NodeID(st.NumNodes())); err == nil {
		t.Fatal("out-of-range node should error")
	}
	if _, _, err := st.EdgeEndpoints(graph.EdgeID(st.NumEdges())); err == nil {
		t.Fatal("out-of-range edge should error")
	}
}
