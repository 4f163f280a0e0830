package egocensus

import (
	"path/filepath"
	"testing"
)

// The facade test exercises the whole public surface end to end: generate,
// persist, reload, declare patterns, query, and cross-check algorithms.
func TestFacadeEndToEnd(t *testing.T) {
	g := PreferentialAttachment(300, 4, 1)
	AssignLabels(g, 3, 2)

	path := filepath.Join(t.TempDir(), "g.egoc")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip lost data")
	}

	e := NewEngine(g2)
	tables, err := e.Execute(`
PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes`)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].TypedRows) != g2.NumNodes() {
		t.Fatal("unexpected result shape")
	}

	// Direct API agrees with the engine.
	spec := Spec{Pattern: CliquePattern("tri", 3, nil), K: 1}
	for _, alg := range []Algorithm{NDBas, NDDiff, NDPvot, PTBas, PTRnd, PTOpt} {
		res, err := Count(g2, spec, alg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for _, row := range tables[0].TypedRows {
			if res.Counts[row.Focal[0]] != row.Count {
				t.Fatalf("%s disagrees with engine at node %d", alg, row.Focal[0])
			}
		}
	}
}

func TestFacadeMatching(t *testing.T) {
	g := ErdosRenyi(40, 90, 3)
	p := CliquePattern("tri", 3, nil)
	cn := FindMatches(CN{}, g, p)
	gql := FindMatches(GQL{}, g, p)
	if len(cn) != len(gql) {
		t.Fatalf("CN %d != GQL %d", len(cn), len(gql))
	}
}

func TestFacadePairwise(t *testing.T) {
	g := ErdosRenyi(15, 30, 5)
	spec := PairSpec{
		Spec: Spec{Pattern: SingleNodePattern("n", ""), K: 1},
		Mode: Intersection,
	}
	res, err := CountPairs(g, spec, PTOpt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pr, c := range res.Counts {
		if want := int64(g.EgoIntersection(pr.A, pr.B, 1).G.NumNodes()); c != want {
			t.Fatalf("pair %v: %d want %d", pr, c, want)
		}
	}
}

func TestFacadeCenters(t *testing.T) {
	g := PreferentialAttachment(100, 3, 7)
	idx := BuildCenters(g, 4, CentersByDegree, 0)
	if idx.Len() != 4 {
		t.Fatalf("centers = %d", idx.Len())
	}
	if _, ok := idx.Bound(0, 1); !ok {
		t.Fatal("bound should be available on a connected graph")
	}
}

func TestFacadeLinkPred(t *testing.T) {
	cfg := DefaultCoauthConfig()
	cfg.Authors, cfg.PapersPerYear = 300, 50
	corpus := GenerateCoauthorship(cfg)
	train, authorNode := corpus.Graph(2001, 2005)
	positives := map[Pair]bool{}
	for pr := range corpus.NewPairs(2006, 2010) {
		na, oka := authorNode[pr[0]]
		nb, okb := authorNode[pr[1]]
		if oka && okb {
			positives[MakePair(na, nb)] = true
		}
	}
	eval := &LinkPredEval{Train: train, Positives: positives}
	if ms := LinkPredMeasures(); len(ms) != 9 {
		t.Fatalf("measures = %d", len(ms))
	}
	j := JaccardScores(train)
	if len(j) == 0 {
		t.Fatal("no jaccard scores")
	}
	if p := eval.PrecisionAtK(j, 50); p < 0 || p > 1 {
		t.Fatalf("precision out of range: %v", p)
	}
	r := RandomScores(train, 100, 1)
	if len(r) != 100 {
		t.Fatal("random scores wrong size")
	}
}

// TestFacadeVersionedCore exercises the MVCC surface: writer, snapshots,
// the live engine, the maintainer, and the durable dynamic store.
func TestFacadeVersionedCore(t *testing.T) {
	g := PreferentialAttachment(60, 3, 11)
	AssignLabels(g, 2, 12)
	nodes0 := g.NumNodes()
	w := NewWriter(g, 1)
	s0 := w.Snapshot()
	spec := Spec{Pattern: CliquePattern("tri", 3, nil), K: 1}

	n := w.AddNode()
	w.SetLabel(n, "l0")
	w.AddEdge(n, 0)
	s1, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch() != s0.Epoch()+1 {
		t.Fatalf("epoch %d after publish from %d", s1.Epoch(), s0.Epoch())
	}

	// Pinned censuses see their own version.
	r0, err := CountSnapshot(s0, spec, NDBas, Options{})
	if err != nil || len(r0.Counts) != nodes0 {
		t.Fatalf("epoch-%d census: %d nodes, err %v", s0.Epoch(), len(r0.Counts), err)
	}
	r1, err := CountSnapshot(s1, spec, PTOpt, Options{})
	if err != nil || len(r1.Counts) != nodes0+1 {
		t.Fatalf("epoch-%d census: %d nodes, err %v", s1.Epoch(), len(r1.Counts), err)
	}

	// The live engine stamps the pinned epoch on each result table.
	e := NewLiveEngine(w)
	tables, err := e.Execute(`
PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes`)
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].Epoch != s1.Epoch() || len(tables[0].Rows) != nodes0+1 {
		t.Fatalf("live engine: epoch %d rows %d", tables[0].Epoch, len(tables[0].Rows))
	}

	// The maintainer follows published batches without recomputation.
	mt := NewMaintainer(s1)
	if err := mt.Register("tri", spec, Options{}); err != nil {
		t.Fatal(err)
	}
	stop := mt.Attach(w)
	defer stop()
	w.AddEdge(0, 1)
	w.AddEdge(1, 2)
	s2, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.CatchUp(s2.Epoch()); err != nil {
		t.Fatal(err)
	}
	counts, epoch, err := mt.Counts("tri")
	if err != nil || epoch < s2.Epoch() {
		t.Fatalf("maintained counts at %d, err %v", epoch, err)
	}
	want, err := CountSnapshot(s2, spec, PTBas, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for node := range counts {
		if counts[node] != want.Counts[node] {
			t.Fatalf("node %d: maintained %d, from-scratch %d", node, counts[node], want.Counts[node])
		}
	}

	// Durable dynamic store: published batches survive reopen.
	base := filepath.Join(t.TempDir(), "dyn.egoc")
	ds, err := CreateDynamic(base, ErdosRenyi(20, 30, 13), 1)
	if err != nil {
		t.Fatal(err)
	}
	dw := ds.Writer()
	a := dw.AddNode()
	dw.AddEdge(a, 0)
	if _, err := dw.Publish(); err != nil {
		t.Fatal(err)
	}
	wantEpoch, wantNodes := ds.Snapshot().Epoch(), ds.Snapshot().NumNodes()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, err := OpenDynamic(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if ds2.Snapshot().Epoch() != wantEpoch || ds2.Snapshot().NumNodes() != wantNodes {
		t.Fatalf("reopen at epoch %d with %d nodes, want %d/%d",
			ds2.Snapshot().Epoch(), ds2.Snapshot().NumNodes(), wantEpoch, wantNodes)
	}

	if FreezeGraph(NewGraph(false)).Epoch() != 0 {
		t.Fatal("fresh freeze should be epoch 0")
	}
}

func TestFacadeShardedStore(t *testing.T) {
	if p := NewPartitioner(4); p.Shards() != 4 {
		t.Fatalf("partitioner: shards=%d", p.Shards())
	}

	// Live sharded writer + engine: queries answer while lanes ingest.
	sw := NewWriter(ErdosRenyi(20, 30, 13), 4)
	sw.AddEdge(sw.AddNode(), 0)
	if _, err := sw.Publish(); err != nil {
		t.Fatal(err)
	}
	tables, err := NewLiveEngine(sw).Execute(
		`PATTERN tri { ?A-?B; ?B-?C; ?A-?C; } SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes LIMIT 3`)
	if err != nil || tables[0].Epoch != sw.Snapshot().Epoch() {
		t.Fatalf("sharded live query: %v (epoch %d vs %d)", err, tables[0].Epoch, sw.Snapshot().Epoch())
	}

	// Durable sharded store: published batches survive reopen, and the
	// recorded shard count is rediscovered.
	base := filepath.Join(t.TempDir(), "dyn.egoc")
	ds, err := CreateDynamic(base, ErdosRenyi(20, 30, 13), 4)
	if err != nil {
		t.Fatal(err)
	}
	dw := ds.Writer()
	dw.AddEdge(dw.AddNode(), 0)
	if _, err := dw.Publish(); err != nil {
		t.Fatal(err)
	}
	wantEpoch, wantNodes := ds.Snapshot().Epoch(), ds.Snapshot().NumNodes()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, err := OpenDynamic(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if ds2.Shards() != 4 || ds2.Snapshot().Epoch() != wantEpoch || ds2.Snapshot().NumNodes() != wantNodes {
		t.Fatalf("reopen: %d shards, epoch %d, %d nodes (want 4/%d/%d)",
			ds2.Shards(), ds2.Snapshot().Epoch(), ds2.Snapshot().NumNodes(), wantEpoch, wantNodes)
	}
}

func TestFacadeScriptParsing(t *testing.T) {
	s, err := ParseScript(`PATTERN n {?A;} SELECT ID, COUNTP(n, SUBGRAPH(ID, 1)) FROM nodes`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Queries()) != 1 {
		t.Fatal("query missing")
	}
	if _, err := ParseScript(`garbage`); err == nil {
		t.Fatal("bad script should error")
	}
}

func TestFacadeFormatTable(t *testing.T) {
	g := ErdosRenyi(5, 6, 9)
	e := NewEngine(g)
	tables, err := e.Execute(`PATTERN n {?A;} SELECT ID, COUNTP(n, SUBGRAPH(ID, 0)) FROM nodes`)
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable(tables[0]) == "" {
		t.Fatal("empty render")
	}
}

func TestFacadeStatsAndMeasures(t *testing.T) {
	g := PreferentialAttachment(200, 3, 5)
	if GlobalClustering(g) <= 0 {
		t.Fatal("clustering should be positive on a BA graph")
	}
	if len(DegreeHistogram(g)) == 0 || DegreeSummary(g).Max < 3 {
		t.Fatal("degree stats wrong")
	}
	_, sizes := Components(g)
	if len(sizes) == 0 || sizes[0] != g.NumNodes() {
		t.Fatal("BA graph should be connected")
	}
	if EstimateDiameter(g, 3) < 2 {
		t.Fatal("diameter estimate too small")
	}
	if len(CoreNumbers(g)) != g.NumNodes() {
		t.Fatal("core numbers wrong length")
	}
	deg, err := DegreeCensus(g, NDPvot, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < g.NumNodes(); n++ {
		if deg[n] != int64(len(g.Neighbors(NodeID(n)))) {
			t.Fatalf("degree census wrong at %d", n)
		}
	}
	cc, err := ClusteringCoefficientCensus(g, 1, PTOpt, Options{})
	if err != nil || len(cc) != g.NumNodes() {
		t.Fatalf("clustering census: %v", err)
	}
	if _, err := JaccardCensus(g, 0, 1, PTOpt, Options{}); err != nil {
		t.Fatal(err)
	}
	dg := NewGraph(true)
	a, b, c := dg.AddNode(), dg.AddNode(), dg.AddNode()
	for _, n := range []NodeID{a, b, c} {
		dg.SetLabel(n, "org1")
	}
	dg.AddEdge(a, b)
	dg.AddEdge(b, c)
	scores, err := BrokerageScoresCensus(dg, Coordinator, NDPvot, Options{})
	if err != nil || scores[b] != 1 {
		t.Fatalf("brokerage census: %v %v", scores, err)
	}
}
