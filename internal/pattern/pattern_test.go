package pattern

import (
	"cmp"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"egocensus/internal/graph"
)

func TestAddNodeDuplicateVar(t *testing.T) {
	p := New("t")
	if _, err := p.AddNode("A", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddNode("A", ""); err == nil {
		t.Fatal("duplicate variable should error")
	}
	if _, err := p.AddNode("", ""); err == nil {
		t.Fatal("empty variable should error")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	p := New("t")
	a := p.MustAddNode("A", "")
	if err := p.AddEdge(a, a, false, false); err == nil {
		t.Fatal("self loop should error")
	}
	if err := p.AddEdge(a, 5, false, false); err == nil {
		t.Fatal("out of range endpoint should error")
	}
}

func TestValidateConnectivity(t *testing.T) {
	p := New("t")
	a := p.MustAddNode("A", "")
	b := p.MustAddNode("B", "")
	if err := p.Validate(); err == nil {
		t.Fatal("disconnected pattern should fail validation")
	}
	p.MustAddEdge(a, b, false, true) // negated edge does not connect
	if err := p.Validate(); err == nil {
		t.Fatal("negated edges must not count for connectivity")
	}
	p.MustAddEdge(a, b, false, false)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := New("empty").Validate(); err == nil {
		t.Fatal("empty pattern should fail validation")
	}
}

func TestPositiveNeighbors(t *testing.T) {
	p := CoordinatorTriad("triad")
	// A->B, B->C positive; A!->C negated.
	if got := p.PositiveNeighbors(0); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("N(A) = %v", got)
	}
	if got := p.PositiveNeighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("N(B) = %v", got)
	}
}

func TestDistancesAndPivot(t *testing.T) {
	p := Chain("chain5", 5, nil)
	d := p.Distances()
	if d[0][4] != 4 || d[1][3] != 2 || d[2][2] != 0 {
		t.Fatalf("distances wrong: %v", d)
	}
	pivot, ecc := p.Pivot(nil)
	if pivot != 2 || ecc != 2 {
		t.Fatalf("pivot = %d ecc = %d, want middle node with ecc 2", pivot, ecc)
	}
	// Restricted pivot selection (subpattern handling): eccentricity is
	// measured over the candidates only.
	pivot, ecc = p.Pivot([]int{0, 1})
	if pivot != 0 || ecc != 1 {
		t.Fatalf("restricted pivot = %d ecc = %d", pivot, ecc)
	}
}

func TestPivotClique(t *testing.T) {
	p := Clique("clq3", 3, nil)
	_, ecc := p.Pivot(nil)
	if ecc != 1 {
		t.Fatalf("clique eccentricity = %d want 1", ecc)
	}
}

func TestSearchOrderConnectedPrefix(t *testing.T) {
	for _, p := range []*Pattern{
		Chain("c6", 6, nil),
		Clique("k4", 4, nil),
		Square("sq", nil),
		Star("st5", 5, nil),
		CoordinatorTriad("triad"),
	} {
		order := p.SearchOrder()
		if len(order) != p.NumNodes() {
			t.Fatalf("%s: order length %d", p.Name, len(order))
		}
		seen := map[int]bool{order[0]: true}
		for _, idx := range order[1:] {
			connected := false
			for _, nb := range p.PositiveNeighbors(idx) {
				if seen[nb] {
					connected = true
					break
				}
			}
			if !connected {
				t.Fatalf("%s: node %d not connected to prefix in order %v", p.Name, idx, order)
			}
			seen[idx] = true
		}
	}
}

func TestSearchOrderPrefersConstrained(t *testing.T) {
	p := New("t")
	a := p.MustAddNode("A", "")
	b := p.MustAddNode("B", "x")
	p.MustAddEdge(a, b, false, false)
	if got := p.SearchOrder()[0]; got != b {
		t.Fatalf("order starts at %d, want labeled node %d", got, b)
	}
}

func TestSubpattern(t *testing.T) {
	p := Clique("k3", 3, nil)
	if err := p.AddSubpattern("s", []int{2, 0}); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Subpattern("s")
	if !ok || !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Subpattern = %v,%v", got, ok)
	}
	if err := p.AddSubpattern("s", []int{1}); err == nil {
		t.Fatal("duplicate subpattern should error")
	}
	if err := p.AddSubpattern("t", nil); err == nil {
		t.Fatal("empty subpattern should error")
	}
	if err := p.AddSubpattern("u", []int{9}); err == nil {
		t.Fatal("out-of-range subpattern should error")
	}
}

func TestPredicateEval(t *testing.T) {
	g := graph.New(false)
	a, b := g.AddNode(), g.AddNode()
	g.SetLabel(a, "x")
	g.SetLabel(b, "x")
	g.SetNodeAttr(a, "age", "30")
	g.SetNodeAttr(b, "age", "9")
	e := g.AddEdge(a, b)
	g.SetEdgeAttr(e, "sign", "-")

	p := New("t")
	pa := p.MustAddNode("A", "")
	pb := p.MustAddNode("B", "")
	p.MustAddEdge(pa, pb, false, false)
	m := Match{a, b}

	cases := []struct {
		pred Predicate
		want bool
	}{
		{Predicate{OpEq, NodeAttr(pa, "LABEL"), NodeAttr(pb, "LABEL")}, true},
		{Predicate{OpEq, NodeAttr(pa, "label"), Const("x")}, true},
		{Predicate{OpNe, NodeAttr(pa, "LABEL"), NodeAttr(pb, "LABEL")}, false},
		// numeric comparison: 30 > 9 numerically, but "30" < "9" as strings
		{Predicate{OpGt, NodeAttr(pa, "age"), NodeAttr(pb, "age")}, true},
		{Predicate{OpLt, NodeAttr(pa, "age"), Const("100")}, true},
		{Predicate{OpEq, EdgeAttr(pa, pb, "sign"), Const("-")}, true},
		{Predicate{OpEq, EdgeAttr(pb, pa, "sign"), Const("-")}, true}, // either direction
		{Predicate{OpEq, NodeAttr(pa, "missing"), Const("x")}, false},
	}
	for i, c := range cases {
		if got := c.pred.Eval(g, m); got != c.want {
			t.Errorf("case %d (%s): got %v want %v", i, c.pred.render(p), got, c.want)
		}
	}
}

func TestCompareStringFallback(t *testing.T) {
	if !Compare(OpLt, "apple", "banana") {
		t.Fatal("string compare failed")
	}
	if Compare(OpEq, "1.0", "one") {
		t.Fatal("mixed numeric/string must fall back to string compare")
	}
	if !Compare(OpEq, "1.0", "1") {
		t.Fatal("numeric equality should coerce")
	}
	if !Compare(OpGe, "5", "5") || !Compare(OpLe, "5", "5") || Compare(OpNe, "5", "5.0") {
		t.Fatal("numeric comparisons wrong")
	}
}

// TestCompareMatchesStrconv checks Compare's first-byte shortcut against
// a reference that always asks strconv.ParseFloat.
func TestCompareMatchesStrconv(t *testing.T) {
	vals := []string{"1e3", "+Inf", "infinity", "nan", "0x1p-2", "1_000", ".5", " 1", "", "-", "b7", "e5", "7", "NaN", "nope"}
	ref := func(op CmpOp, l, r string) bool {
		lf, errL := strconv.ParseFloat(l, 64)
		rf, errR := strconv.ParseFloat(r, 64)
		if errL == nil && errR == nil {
			return applyOp(op, lf, rf)
		}
		return applyOp(op, l, r)
	}
	for _, l := range vals {
		for _, r := range vals {
			for _, op := range []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
				if got, want := Compare(op, l, r), ref(op, l, r); got != want {
					t.Errorf("Compare(%v, %q, %q) = %v, strconv reference %v", op, l, r, got, want)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { Compare(OpEq, "b7", "b9") }); n != 0 {
		t.Fatalf("Compare of non-numeric operands allocates %.1f times per call", n)
	}
}

func applyOp[T cmp.Ordered](op CmpOp, l, r T) bool {
	switch op {
	case OpEq:
		return l == r
	case OpNe:
		return l != r
	case OpLt:
		return l < r
	case OpLe:
		return l <= r
	case OpGt:
		return l > r
	case OpGe:
		return l >= r
	}
	return false
}

func TestEvalAllNegatedEdges(t *testing.T) {
	g := graph.New(false)
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(a, b)
	g.AddEdge(b, c)

	p := New("path-no-chord")
	pa := p.MustAddNode("A", "")
	pb := p.MustAddNode("B", "")
	pc := p.MustAddNode("C", "")
	p.MustAddEdge(pa, pb, false, false)
	p.MustAddEdge(pb, pc, false, false)
	p.MustAddEdge(pa, pc, false, true)

	if !p.EvalAll(g, Match{a, b, c}) {
		t.Fatal("open path should satisfy the negated chord")
	}
	g.AddEdge(a, c)
	if p.EvalAll(g, Match{a, b, c}) {
		t.Fatal("closing the chord should violate the negated edge")
	}
}

func TestEvalAllDirectedNegation(t *testing.T) {
	g := graph.New(true)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(b, a) // only b->a exists

	p := New("t")
	pa := p.MustAddNode("A", "")
	pb := p.MustAddNode("B", "")
	p.MustAddEdge(pa, pb, true, true) // assert no a->b
	// keep connectivity via a positive undirected edge
	p.MustAddEdge(pa, pb, false, false)
	if !p.EvalAll(g, Match{a, b}) {
		t.Fatal("directed negation should only consider a->b")
	}
	g.AddEdge(a, b)
	if p.EvalAll(g, Match{a, b}) {
		t.Fatal("a->b now exists; negation must fail")
	}
}

func TestMatchKeyDedup(t *testing.T) {
	p := Clique("k3", 3, nil)
	m1 := Match{5, 7, 9}
	m2 := Match{9, 5, 7} // automorphic re-assignment of the same triangle
	if p.Key(m1, nil) != p.Key(m2, nil) {
		t.Fatal("automorphic embeddings of a clique must share a key")
	}
	m3 := Match{5, 7, 10}
	if p.Key(m1, nil) == p.Key(m3, nil) {
		t.Fatal("different subgraphs must have different keys")
	}
	// With a subpattern image, automorphic re-assignments are distinct.
	if p.Key(m1, []int{0}) == p.Key(m2, []int{0}) {
		t.Fatal("subpattern image must distinguish automorphic embeddings")
	}
}

func TestMatchKeyDirectionMatters(t *testing.T) {
	p := New("t")
	a := p.MustAddNode("A", "")
	b := p.MustAddNode("B", "")
	p.MustAddEdge(a, b, true, false)
	k1 := p.Key(Match{1, 2}, nil)
	k2 := p.Key(Match{2, 1}, nil)
	if k1 == k2 {
		t.Fatal("directed edge image must be orientation-sensitive")
	}
}

func TestLibraryShapes(t *testing.T) {
	if p := Clique("clq4", 4, []string{"a", "b", "c", "d"}); p.NumNodes() != 4 || len(p.Edges()) != 6 {
		t.Fatal("clq4 shape wrong")
	}
	if p := Square("sqr", nil); p.NumNodes() != 4 || len(p.Edges()) != 4 {
		t.Fatal("sqr shape wrong")
	}
	if p := Star("star", 5, nil); len(p.PositiveNeighbors(0)) != 4 {
		t.Fatal("star hub degree wrong")
	}
	if p := SingleNode("n", "x"); p.NumNodes() != 1 || p.Node(0).Label != "x" {
		t.Fatal("single node wrong")
	}
	if p := SingleEdge("e", nil); len(p.Edges()) != 1 {
		t.Fatal("single edge wrong")
	}
	triad := CoordinatorTriad("triad")
	if err := triad.Validate(); err != nil {
		t.Fatal(err)
	}
	ut := UnstableTriangle("ut", 1)
	if len(ut.Predicates()) != 3 {
		t.Fatal("unstable triangle predicates missing")
	}
}

func TestStringRendersSyntax(t *testing.T) {
	p := CoordinatorTriad("triad")
	s := p.String()
	for _, frag := range []string{"PATTERN triad {", "?A->?B;", "?A!->?C;", "SUBPATTERN coordinator {?B;}"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() missing %q:\n%s", frag, s)
		}
	}
	single := SingleNode("n", "")
	if !strings.Contains(single.String(), "?A;") {
		t.Fatalf("single node render: %s", single.String())
	}
}

func TestLabeledPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong label count")
		}
	}()
	Clique("bad", 3, []string{"a"})
}
