package plan

import (
	"strings"
	"sync"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/pattern"
)

// parseQuery parses a script and returns its single query plus the
// pattern catalog it defines.
func parseQuery(t *testing.T, src string) (*lang.SelectStmt, map[string]*pattern.Pattern) {
	t.Helper()
	script, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	qs := script.Queries()
	if len(qs) != 1 {
		t.Fatalf("queries = %d", len(qs))
	}
	return qs[0], script.Patterns
}

func TestBuildSingleCensusShape(t *testing.T) {
	q, cat := parseQuery(t, `
PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes WHERE RND() < 0.5 ORDER BY COUNT DESC LIMIT 5`)
	l, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if l.Pair || l.Union || l.K != 2 || len(l.Aggs) != 1 {
		t.Fatalf("logical: %+v", l)
	}
	ol, ok := l.Root.(*OrderLimit)
	if !ok {
		t.Fatalf("root = %T want OrderLimit", l.Root)
	}
	census, ok := ol.Input.(*Census)
	if !ok {
		t.Fatalf("under OrderLimit: %T want Census", ol.Input)
	}
	fs, ok := census.Input.(*FocalSelect)
	if !ok {
		t.Fatalf("census input = %T want FocalSelect", census.Input)
	}
	if fs.Pairwise {
		t.Fatal("single-node query marked pairwise")
	}
	if _, ok := fs.Input.(*NodeScan); !ok {
		t.Fatalf("leaf = %T want NodeScan", fs.Input)
	}
}

func TestBuildPairShapeAndErrors(t *testing.T) {
	q, cat := parseQuery(t, `
PATTERN e1 { ?A-?B; }
SELECT n1.ID, n2.ID, COUNTP(e1, SUBGRAPH-UNION(n1.ID, n2.ID, 1))
FROM nodes AS n1, nodes AS n2`)
	l, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Pair || !l.Union {
		t.Fatalf("pair flags: %+v", l)
	}
	pc, ok := l.Root.(*PairCensus)
	if !ok {
		t.Fatalf("root = %T want PairCensus", l.Root)
	}
	if _, ok := pc.Input.(*NodeScan); !ok {
		t.Fatalf("pair input = %T want NodeScan (no WHERE)", pc.Input)
	}

	// Unknown pattern.
	if _, err := Build(q, nil); err == nil || !strings.Contains(err.Error(), "unknown pattern") {
		t.Fatalf("unknown-pattern err = %v", err)
	}
	// No aggregate (the parser rejects this too; Build defends for
	// programmatically built statements).
	if _, err := Build(&lang.SelectStmt{}, cat); err == nil || !strings.Contains(err.Error(), "no COUNTP") {
		t.Fatalf("no-aggregate err = %v", err)
	}
	// Pairwise with two aggregates.
	q3, cat3 := parseQuery(t, `
PATTERN e1 { ?A-?B; }
PATTERN n1p { ?A; }
SELECT n1.ID, n2.ID, COUNTP(e1, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)),
COUNTP(n1p, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1))
FROM nodes AS n1, nodes AS n2`)
	if _, err := Build(q3, cat3); err == nil || !strings.Contains(err.Error(), "single aggregate") {
		t.Fatalf("pair-multi-agg err = %v", err)
	}
}

func TestAutomorphisms(t *testing.T) {
	triangle := pattern.New("tri")
	for _, v := range []string{"A", "B", "C"} {
		triangle.MustAddNode(v, "")
	}
	triangle.MustAddEdge(0, 1, false, false)
	triangle.MustAddEdge(1, 2, false, false)
	triangle.MustAddEdge(0, 2, false, false)
	if got := len(pattern.Automorphisms(triangle, nil, pattern.Structural)); got != 6 {
		t.Fatalf("triangle autos = %d want 6", got)
	}
	// Fixing one node pointwise leaves the swap of the other two.
	if got := len(pattern.Automorphisms(triangle, []int{0}, pattern.Structural)); got != 2 {
		t.Fatalf("anchored triangle autos = %d want 2", got)
	}

	path := pattern.New("path")
	for _, v := range []string{"A", "B", "C"} {
		path.MustAddNode(v, "")
	}
	path.MustAddEdge(0, 1, false, false)
	path.MustAddEdge(1, 2, false, false)
	if got := len(pattern.Automorphisms(path, nil, pattern.Structural)); got != 2 {
		t.Fatalf("path autos = %d want 2 (end swap)", got)
	}

	// A label on one endpoint breaks the symmetry.
	lpath := pattern.New("lpath")
	lpath.MustAddNode("A", "x")
	lpath.MustAddNode("B", "")
	lpath.MustAddEdge(0, 1, false, false)
	if got := len(pattern.Automorphisms(lpath, nil, pattern.Structural)); got != 1 {
		t.Fatalf("labeled edge autos = %d want 1", got)
	}

	// Directed 3-cycle: rotations only.
	cyc := pattern.New("cyc")
	for _, v := range []string{"A", "B", "C"} {
		cyc.MustAddNode(v, "")
	}
	cyc.MustAddEdge(0, 1, true, false)
	cyc.MustAddEdge(1, 2, true, false)
	cyc.MustAddEdge(2, 0, true, false)
	if got := len(pattern.Automorphisms(cyc, nil, pattern.Structural)); got != 3 {
		t.Fatalf("directed cycle autos = %d want 3", got)
	}
}

// The first queries on an engine plan concurrently; they must share one
// statistics snapshot, computed once and without a data race.
func TestGraphSourceStatsConcurrent(t *testing.T) {
	src := FromGraph(gen.PreferentialAttachment(200, 3, 1))
	got := make([]*graph.Stats, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = src.GraphStats()
		}(i)
	}
	wg.Wait()
	for _, s := range got {
		if s == nil || s != got[0] {
			t.Fatal("concurrent GraphStats calls returned different snapshots")
		}
	}
}
