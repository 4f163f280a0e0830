package storage

import (
	"path/filepath"
	"reflect"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
)

func TestStoreGraphStatsMatchesCompute(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := gen.ErdosRenyi(80, 200, 17)
		if directed {
			d := graph.New(true)
			d.AddNodes(g.NumNodes())
			for e := 0; e < g.NumEdges(); e++ {
				ed := g.Edge(graph.EdgeID(e))
				d.AddEdge(ed.From, ed.To)
			}
			g = d
		}
		gen.AssignLabels(g, 3, 18)
		path := filepath.Join(t.TempDir(), "g.egoc")
		if err := Save(path, g); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, 16)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		before := st.Stats
		got, err := st.GraphStats()
		if err != nil {
			t.Fatal(err)
		}
		// Statistics from the resident indexes must equal statistics of the
		// materialized graph — and must not have read any payload blocks.
		if st.Stats != before {
			t.Fatalf("directed=%v: GraphStats touched the block cache: %+v -> %+v", directed, before, st.Stats)
		}
		full, err := st.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if st.Stats != before || len(st.cache.entries) != 0 {
			t.Fatalf("directed=%v: Open or Materialize used the block cache: %+v", directed, st.Stats)
		}
		want := graph.ComputeStats(full)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("directed=%v: store stats %+v != computed %+v", directed, got, want)
		}
		again, _ := st.GraphStats()
		if again != got {
			t.Fatal("GraphStats not memoized")
		}
	}
}

func TestStoreGraphMemoized(t *testing.T) {
	g := gen.ErdosRenyi(20, 40, 19)
	path := filepath.Join(t.TempDir(), "g.egoc")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g1, err := st.Graph()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := st.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("Graph() not memoized")
	}
	if g1.NumNodes() != g.NumNodes() || g1.NumEdges() != g.NumEdges() {
		t.Fatal("materialized graph mismatch")
	}
}
