package core

import (
	"reflect"
	"strings"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/pattern"
	"egocensus/internal/plan"
)

// TestForcedAlgorithmParity runs representative queries under every
// algorithm with a census driver and checks the tables are identical —
// the optimizer is free to pick any of them, so they must agree.
func TestForcedAlgorithmParity(t *testing.T) {
	g := gen.PreferentialAttachment(120, 3, 5)
	gen.AssignLabels(g, 3, 6)
	queries := []string{
		`PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes ORDER BY COUNT DESC LIMIT 10`,
		`PATTERN lw { ?A-?B; ?B-?C; [?A.LABEL='l0']; SUBPATTERN mid {?B;} }
SELECT ID, COUNTSP(mid, lw, SUBGRAPH(ID, 1)) FROM nodes WHERE LABEL = 'l1'`,
		// Two focal nodes where the planner estimates 40: a forced
		// algorithm is never re-priced at the observed count.
		`PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes WHERE ID < 2`,
	}
	for _, src := range queries {
		var want *Table
		for _, alg := range []Algorithm{NDBas, NDDiff, NDPvot, PTBas, PTRnd, PTOpt} {
			e := NewEngine(g)
			e.Alg = alg
			e.Seed = 42
			tables, err := e.Execute(src)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			tab := tables[0]
			if tab.Algorithm != alg {
				t.Fatalf("forced %s but ran %s", alg, tab.Algorithm)
			}
			if want == nil {
				want = tab
				continue
			}
			if !reflect.DeepEqual(tab.Rows, want.Rows) {
				t.Fatalf("%s disagrees with %s on %q:\n%v\nvs\n%v",
					alg, want.Algorithm, src, tab.Rows, want.Rows)
			}
		}
	}
}

// TestForcedAlgorithmParityPairwise covers the pairwise drivers (ND-DIFF
// has none and is substituted by the optimizer, so it is exercised too).
func TestForcedAlgorithmParityPairwise(t *testing.T) {
	g := gen.PreferentialAttachment(40, 3, 7)
	src := `PATTERN e1 { ?A-?B; }
SELECT n1.ID, n2.ID, COUNTP(e1, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1))
FROM nodes AS n1, nodes AS n2 WHERE RND() < 0.2`
	var want *Table
	for _, alg := range []Algorithm{NDBas, NDDiff, NDPvot, PTBas, PTRnd, PTOpt} {
		e := NewEngine(g)
		e.Alg = alg
		e.Seed = 7
		tables, err := e.Execute(src)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		tab := tables[0]
		if want == nil {
			want = tab
			continue
		}
		if !reflect.DeepEqual(tab.Rows, want.Rows) {
			t.Fatalf("%s disagrees with %s:\n%v\nvs\n%v", alg, want.Algorithm, tab.Rows, want.Rows)
		}
	}
}

// TestPatternsReturnsCopy guards against the old catalog-leak: callers
// mutating the returned map must not corrupt the engine.
func TestPatternsReturnsCopy(t *testing.T) {
	e := NewEngine(gen.ErdosRenyi(10, 20, 3))
	p := pattern.New("keep")
	p.MustAddNode("A", "")
	if err := e.DefinePattern(p); err != nil {
		t.Fatal(err)
	}
	m := e.Patterns()
	delete(m, "keep")
	m["rogue"] = p
	if _, ok := e.Patterns()["keep"]; !ok {
		t.Fatal("deleting from the returned map removed the engine's pattern")
	}
	if _, ok := e.Patterns()["rogue"]; ok {
		t.Fatal("inserting into the returned map leaked into the engine")
	}
}

// TestDuplicatePatternPolicy: redefinition is rejected uniformly — by
// DefinePattern, and by scripts against both programmatic and scripted
// prior definitions.
func TestDuplicatePatternPolicy(t *testing.T) {
	e := NewEngine(gen.ErdosRenyi(10, 20, 3))
	p := pattern.New("dup")
	p.MustAddNode("A", "")
	if err := e.DefinePattern(p); err != nil {
		t.Fatal(err)
	}
	if err := e.DefinePattern(p); err == nil || !strings.Contains(err.Error(), "already defined") {
		t.Fatalf("DefinePattern dup err = %v", err)
	}
	if _, err := e.Execute(`PATTERN dup { ?A-?B; }
SELECT ID, COUNTP(dup, SUBGRAPH(ID, 1)) FROM nodes`); err == nil || !strings.Contains(err.Error(), "already defined") {
		t.Fatalf("script redefinition err = %v", err)
	}
	// The failed script must not have clobbered the original (1-node)
	// definition.
	if got := e.Patterns()["dup"].NumNodes(); got != 1 {
		t.Fatalf("catalog pattern mutated: %d nodes", got)
	}
	// A script defining a genuinely new pattern persists it.
	if _, err := e.Execute(`PATTERN fresh { ?A-?B; }
SELECT ID, COUNTP(fresh, SUBGRAPH(ID, 1)) FROM nodes`); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Patterns()["fresh"]; !ok {
		t.Fatal("script-defined pattern not retained")
	}
}

// TestExecStatsPopulated checks the per-stage measurements thread
// through to the table.
func TestExecStatsPopulated(t *testing.T) {
	g := gen.PreferentialAttachment(60, 3, 9)
	e := NewEngine(g)
	tables, err := e.Execute(`PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes WHERE RND() < 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	st := tables[0].Stats
	if st.PlanTime <= 0 || st.CensusTime <= 0 {
		t.Fatalf("missing stage times: %+v", st)
	}
	if st.FocalCount <= 0 || st.FocalCount >= g.NumNodes() {
		t.Fatalf("RND()-filtered focal count = %d of %d", st.FocalCount, g.NumNodes())
	}
	if st.Rows != len(tables[0].Rows) {
		t.Fatalf("Rows stat %d != %d rows", st.Rows, len(tables[0].Rows))
	}
	if tables[0].Elapsed != st.CensusTime {
		t.Fatal("Elapsed must mirror CensusTime")
	}
	if tables[0].Plan == nil || tables[0].Plan.TotalCost <= 0 {
		t.Fatal("plan not attached")
	}
}

// TestPlanAgainstSourceWithoutHydration: EXPLAIN through a Source must
// not materialize the graph.
func TestPlanAgainstSourceWithoutHydration(t *testing.T) {
	g := gen.ErdosRenyi(30, 60, 15)
	src := plan.FromGraph(g)
	e := NewEngineFromSource(src)
	tables, err := e.Execute(`PATTERN e1 { ?A-?B; }
EXPLAIN SELECT ID, COUNTP(e1, SUBGRAPH(ID, 1)) FROM nodes`)
	if err != nil {
		t.Fatal(err)
	}
	if e.G != nil {
		t.Fatal("EXPLAIN hydrated the graph")
	}
	if len(tables[0].Rows) == 0 {
		t.Fatal("no plan rows")
	}
	// A real query hydrates lazily and runs.
	tables, err = e.Execute(`SELECT ID, COUNTP(e1, SUBGRAPH(ID, 1)) FROM nodes`)
	if err != nil {
		t.Fatal(err)
	}
	if e.G == nil {
		t.Fatal("query did not hydrate the graph")
	}
	if len(tables[0].TypedRows) != g.NumNodes() {
		t.Fatalf("rows = %d", len(tables[0].TypedRows))
	}
}
