package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
)

// materializeReference is the per-item hydration Materialize replaced:
// labels interned by name in node order, one cached read per attribute
// field and per edge, and one AddEdge per edge. The fuzz oracle holds
// Materialize to it.
func materializeReference(st *Store) (*graph.Graph, error) {
	nodeAttrs, err := referenceAttrs(st, st.h.NodeAttrOff)
	if err != nil {
		return nil, err
	}
	edgeAttrs, err := referenceAttrs(st, st.h.EdgeAttrOff)
	if err != nil {
		return nil, err
	}
	g := graph.New(st.Directed())
	g.AddNodes(st.NumNodes())
	for n := 0; n < st.NumNodes(); n++ {
		id := graph.NodeID(n)
		if l := st.Label(id); l != graph.NoLabel {
			g.SetLabel(id, st.labels.Name(l))
		}
		for k, v := range nodeAttrs[uint32(n)] {
			g.SetNodeAttr(id, k, v)
		}
	}
	for e := 0; e < st.NumEdges(); e++ {
		from, to, err := st.EdgeEndpoints(graph.EdgeID(e))
		if err != nil {
			return nil, err
		}
		eid := g.AddEdge(from, to)
		for k, v := range edgeAttrs[uint32(eid)] {
			g.SetEdgeAttr(eid, k, v)
		}
	}
	return g, nil
}

// referenceAttrs decodes the attribute section at off field by field
// through the block cache: a u32 entry count, then per entry a u32 id, a
// u16 pair count and that many str16 key/value pairs. Open has validated
// the section's structure.
func referenceAttrs(st *Store, off uint64) (map[uint32]map[string]string, error) {
	pos := int64(off)
	read := func(n int) ([]byte, error) {
		b, err := st.readRange(pos, n)
		pos += int64(n)
		return b, err
	}
	b, err := read(4)
	if err != nil {
		return nil, err
	}
	out := map[uint32]map[string]string{}
	for i := binary.LittleEndian.Uint32(b); i > 0; i-- {
		if b, err = read(6); err != nil {
			return nil, err
		}
		id, pairs := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint16(b[4:])
		m := map[string]string{}
		for ; pairs > 0; pairs-- {
			var kv [2]string
			for j := range kv {
				if b, err = read(2); err != nil {
					return nil, err
				}
				if b, err = read(int(binary.LittleEndian.Uint16(b))); err != nil {
					return nil, err
				}
				kv[j] = string(b)
			}
			m[kv[0]] = kv[1]
		}
		out[id] = m
	}
	return out, nil
}

// writeImage encodes g in the binary format.
func writeImage(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSharded(&buf, g, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadImage writes img to a file and loads it.
func loadImage(t testing.TB, img []byte) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.egoc")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWriteLoadByteIdentity checks that hydration keeps everything the image
// encodes, down to label IDs: re-encoding a loaded image reproduces it
// byte for byte.
func TestWriteLoadByteIdentity(t *testing.T) {
	directed := graph.New(true)
	directed.AddNodes(4)
	directed.SetLabel(2, "y")
	directed.SetLabel(0, "x")
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {2, 2}, {3, 1}, {0, 1}} {
		directed.AddEdge(e[0], e[1])
	}
	directed.SetNodeAttr(3, "age", "7")

	attrs := gen.ErdosRenyi(20, 40, 11)
	gen.AssignLabels(attrs, 3, 12)
	attrs.Labels().Intern("unused") // in the dictionary, on no node
	for e := 0; e < attrs.NumEdges(); e += 3 {
		attrs.SetEdgeAttr(graph.EdgeID(e), "w", fmt.Sprint(e%4))
	}
	attrs.SetNodeAttr(5, "name", "five")

	for name, img := range map[string][]byte{
		"validStoreBytes": validStoreBytes(t),
		"directed":        writeImage(t, directed),
		"edge-attrs":      writeImage(t, attrs),
	} {
		if again := writeImage(t, loadImage(t, img)); !bytes.Equal(again, img) {
			t.Errorf("%s: writeSharded(Load(img)) differs from img (%d vs %d bytes)", name, len(again), len(img))
		}
	}
}

// TestHydratedRowsDoNotAlias appends to every row of a hydrated graph,
// directly and through a dynamic store's writer, and checks that no
// append lands in a neighbouring row. Hydrated rows share one backing
// array; only their capped capacity keeps an append from overwriting the
// next row, and the writer appends into spare capacity in place.
func TestHydratedRowsDoNotAlias(t *testing.T) {
	for _, directed := range []bool{false, true} {
		ref := graph.New(directed)
		ref.AddNodes(30)
		src := gen.ErdosRenyi(30, 90, 21)
		for e := 0; e < src.NumEdges(); e++ {
			ed := src.Edge(graph.EdgeID(e))
			ref.AddEdge(ed.From, ed.To)
		}
		path := filepath.Join(t.TempDir(), "g.egoc")
		if err := Save(path, ref); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		dynPath := filepath.Join(t.TempDir(), "d.egoc")
		ds, err := CreateDynamicSharded(dynPath, ref, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		if ds, err = OpenDynamic(dynPath); err != nil {
			t.Fatal(err)
		}
		w := ds.Writer()
		for v := 0; v < ref.NumNodes(); v++ {
			from, to := graph.NodeID(v), graph.NodeID((v+7)%ref.NumNodes())
			ref.AddEdge(from, to)
			loaded.AddEdge(from, to)
			w.AddEdge(from, to)
		}
		snap, err := w.Publish()
		if err != nil {
			t.Fatal(err)
		}
		assertGraphsEqual(t, ref, loaded)
		assertGraphsEqual(t, ref, snap.Graph())
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// hydrationGraph is a 2 000-node labelled graph with one attribute per
// node, the shape the cold-open benchmark hydrates.
func hydrationGraph(tb testing.TB) string {
	g := gen.PreferentialAttachment(2000, 3, 5)
	gen.AssignLabels(g, 4, 6)
	for n := 0; n < g.NumNodes(); n++ {
		g.SetNodeAttr(graph.NodeID(n), "bucket", fmt.Sprintf("b%d", n%50))
	}
	path := filepath.Join(tb.TempDir(), "g.egoc")
	if err := Save(path, g); err != nil {
		tb.Fatal(err)
	}
	return path
}

func openMaterialize(tb testing.TB, path string) *graph.Graph {
	st, err := Open(path, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	g, err := st.Materialize()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestHydrationAllocs bounds the allocations of Open + Materialize: a
// few per attributed node (its attribute map and distinct values), and a
// constant number per section — none per edge or per label.
func TestHydrationAllocs(t *testing.T) {
	path := hydrationGraph(t)
	const attributed = 2000
	allocs := testing.AllocsPerRun(5, func() { openMaterialize(t, path) })
	if limit := 3*attributed + 256; allocs > float64(limit) {
		t.Fatalf("Open + Materialize made %.0f allocations, want <= %d", allocs, limit)
	}
}

var hydrated *graph.Graph

func BenchmarkOpenMaterialize(b *testing.B) {
	path := hydrationGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hydrated = openMaterialize(b, path)
	}
}
