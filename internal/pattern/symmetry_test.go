package pattern

import (
	"reflect"
	"testing"
)

func TestAutomorphismGroup(t *testing.T) {
	tri := Clique("tri", 3, nil)
	g := Automorphisms(tri, nil, Structural)
	want := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("triangle group = %v, want %v (identity first, then lexicographic)", g, want)
	}
	if got := len(Automorphisms(Clique("k4", 4, nil), []int{0}, Structural)); got != 6 {
		t.Fatalf("4-clique fixing one node: %d, want 6", got)
	}

	// A labelled and an unlabelled endpoint: structurally rigid, but a
	// graph edge whose endpoints both carry the label matches both ways.
	edge := SingleEdge("e", []string{"A", ""})
	if h, k := len(Automorphisms(edge, nil, Structural)), len(Automorphisms(edge, nil, KeyPreserving)); h != 1 || k != 2 {
		t.Fatalf("labelled edge: |H| = %d, |K| = %d, want 1 and 2", h, k)
	}

	// Negated edges count for the structural group only.
	p := Chain("p", 3, nil) // A-B-C
	p.MustAddEdge(0, 1, false, true)
	if h, k := len(Automorphisms(p, nil, Structural)), len(Automorphisms(p, nil, KeyPreserving)); h != 1 || k != 2 {
		t.Fatalf("path with negated A!-B: |H| = %d, |K| = %d, want 1 and 2", h, k)
	}

	// Edge multiplicity is structure: a doubled A-B breaks the end swap.
	dbl := Chain("dbl", 3, nil)
	dbl.MustAddEdge(0, 1, false, false)
	if got := len(Automorphisms(dbl, nil, Structural)); got != 1 {
		t.Fatalf("path with doubled edge: %d automorphisms, want 1", got)
	}

	if g := Automorphisms(Clique("k9", 9, nil), nil, Structural); g != nil {
		t.Fatalf("9-node pattern: group of %d, want nil (not computed)", len(g))
	}
}

func TestBreakSymmetry(t *testing.T) {
	tri := Clique("tri", 3, nil)
	brk := tri.BreakSymmetry(nil, []int{0, 1, 2})
	want := SymmetryBreak{Less: [][2]int{{0, 1}, {0, 2}, {1, 2}}, Group: 6, Distinct: true}
	if !reflect.DeepEqual(brk, want) {
		t.Fatalf("triangle: %+v, want %+v", brk, want)
	}

	// A COUNTSP subpattern stays fixed in H and in K.
	if brk := tri.BreakSymmetry([]int{0}, []int{0, 1, 2}); brk.Group != 2 || !brk.Distinct || !reflect.DeepEqual(brk.Less, [][2]int{{1, 2}}) {
		t.Fatalf("triangle with subpattern {A}: %+v", brk)
	}

	// A predicate pins its node in H but not in K: dedup must stay on.
	pred := Clique("pred", 3, nil)
	pred.AddPredicate(Predicate{Op: OpEq, L: NodeAttr(0, "w"), R: Const("1")})
	if brk := pred.BreakSymmetry(nil, []int{0, 1, 2}); brk.Group != 2 || brk.Distinct {
		t.Fatalf("triangle with predicate on A: %+v, want group 2, not Distinct", brk)
	}

	// Unknown group: no conditions, and dedup stays on.
	k9 := Clique("k9", 9, nil)
	if brk := k9.BreakSymmetry(nil, k9.SearchOrder()); !reflect.DeepEqual(brk, SymmetryBreak{Group: 1}) {
		t.Fatalf("9-clique: %+v", brk)
	}
}
