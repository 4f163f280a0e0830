package egocensus_test

import (
	"fmt"

	"egocensus"
)

// A small fixed graph used by the examples: two triangles sharing the edge
// 1-2, plus a pendant node.
//
//	0 - 1 - 3
//	 \ / \ /
//	  2---+     4 (attached to 3)
func exampleGraph() *egocensus.Graph {
	g := egocensus.NewGraph(false)
	for i := 0; i < 5; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	return g
}

// ExampleEngine_Execute runs a triangle census in the declarative
// language.
func ExampleEngine_Execute() {
	g := exampleGraph()
	e := egocensus.NewEngine(g)
	tables, err := e.Execute(`
		PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
		SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes`)
	if err != nil {
		panic(err)
	}
	for _, row := range tables[0].TypedRows {
		fmt.Printf("node %d: %d\n", row.Focal[0], row.Count)
	}
	// Output:
	// node 0: 1
	// node 1: 2
	// node 2: 2
	// node 3: 1
	// node 4: 0
}

// ExampleCount evaluates the same census through the direct API with an
// explicit algorithm.
func ExampleCount() {
	g := exampleGraph()
	spec := egocensus.Spec{Pattern: egocensus.CliquePattern("tri", 3, nil), K: 2}
	res, err := egocensus.Count(g, spec, egocensus.PTOpt, egocensus.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("global matches:", res.NumMatches)
	fmt.Println("node 4 sees:", res.Counts[4])
	// Output:
	// global matches: 2
	// node 4 sees: 1
}

// ExampleCountPairs counts common nodes in two egos' 1-hop neighborhoods
// (the intersection census behind the Jaccard coefficient).
func ExampleCountPairs() {
	g := exampleGraph()
	spec := egocensus.PairSpec{
		Spec: egocensus.Spec{Pattern: egocensus.SingleNodePattern("n", ""), K: 1},
		Mode: egocensus.Intersection,
	}
	res, err := egocensus.CountPairs(g, spec, egocensus.PTOpt, egocensus.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("common(0,3):", res.Counts[egocensus.MakePair(0, 3)])
	// Output:
	// common(0,3): 2
}

// ExampleTopK ranks nodes by their census counts.
func ExampleTopK() {
	g := exampleGraph()
	spec := egocensus.Spec{Pattern: egocensus.CliquePattern("tri", 3, nil), K: 1}
	top, err := egocensus.TopK(g, spec, 2, egocensus.NDPvot, egocensus.Options{})
	if err != nil {
		panic(err)
	}
	for _, nc := range top {
		fmt.Printf("node %d: %d\n", nc.Node, nc.Count)
	}
	// Output:
	// node 1: 2
	// node 2: 2
}

// ExampleNewMaintainer maintains counts while a writer grows the graph.
func ExampleNewMaintainer() {
	g := egocensus.NewGraph(false)
	for i := 0; i < 3; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	w := egocensus.NewWriter(g, 1)
	mt := egocensus.NewMaintainer(w.Snapshot())
	spec := egocensus.Spec{Pattern: egocensus.CliquePattern("tri", 3, nil), K: 1}
	if err := mt.Register("tri", spec, egocensus.Options{}); err != nil {
		panic(err)
	}
	stop := mt.Attach(w)
	defer stop()
	before, _ := mt.NumMatches("tri")
	fmt.Println("before:", before)
	w.AddEdge(0, 2) // closes the triangle
	s, err := w.Publish()
	if err != nil {
		panic(err)
	}
	if _, err := mt.CatchUp(s.Epoch()); err != nil {
		panic(err)
	}
	after, _ := mt.NumMatches("tri")
	counts, _, _ := mt.Counts("tri")
	fmt.Println("after:", after, "count at node 0:", counts[0])
	// Output:
	// before: 0
	// after: 1 count at node 0: 1
}
