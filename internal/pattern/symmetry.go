package pattern

// This file holds the pattern's automorphism group and the
// symmetry-breaking conditions derived from it (Grochow and Kellis,
// "Network Motif Discovery Using Subgraph Enumeration and
// Symmetry-Breaking"). A matcher that enforces the conditions emits one
// embedding per orbit of the group instead of every automorphic image.

// Symmetry selects what a permutation of pattern nodes must preserve to
// count as an automorphism.
type Symmetry int

const (
	// Structural permutations preserve exact labels and every edge,
	// positive and negated, with orientation and multiplicity. Composing
	// a valid embedding with one yields a valid embedding, provided the
	// nodes that predicates mention stay fixed.
	Structural Symmetry = iota
	// KeyPreserving permutations preserve positive edges (orientation and
	// multiplicity) and never map a node onto one with a different
	// non-empty label. Two valid embeddings share an AppendKey exactly
	// when they differ by such a permutation that also fixes the
	// subpattern.
	KeyPreserving
)

// maxAutomorphismNodes bounds exhaustive enumeration; a clique this size
// already has 8! = 40320 automorphisms.
const maxAutomorphismNodes = 8

// Automorphisms returns the permutations h of p's nodes (node i maps to
// h[i]) that preserve the structure sym selects and fix every node in
// fixed. The identity comes first and the rest follow in lexicographic
// order. For patterns above 8 nodes the group is not computed and the
// result is nil; callers must treat it as unknown.
//
//egolint:deterministic the group order fixes the derived symmetry-breaking conditions
func Automorphisms(p *Pattern, fixed []int, sym Symmetry) [][]int {
	n := len(p.nodes)
	if n > maxAutomorphismNodes {
		return nil
	}
	// cnt[k][a*n+b] counts the edges of kind k from a to b; undirected
	// kinds are stored symmetrically.
	kinds := 4
	if sym == KeyPreserving {
		kinds = 2 // negated edges play no part in match identity
	}
	cnt := make([][]int, kinds)
	for k := range cnt {
		cnt[k] = make([]int, n*n)
	}
	for _, e := range p.edges {
		k := 0
		if e.Directed {
			k = 1
		}
		if e.Negated {
			if sym == KeyPreserving {
				continue
			}
			k += 2
		}
		cnt[k][e.From*n+e.To]++
		if !e.Directed {
			cnt[k][e.To*n+e.From]++
		}
	}
	isFixed := make([]bool, n)
	for _, i := range fixed {
		isFixed[i] = true
	}
	labelOK := func(i, j int) bool {
		a, b := p.nodes[i].Label, p.nodes[j].Label
		if sym == KeyPreserving {
			return a == "" || b == "" || a == b
		}
		return a == b
	}
	// edgesOK checks every pair between node i (mapped to j) and the
	// already-mapped nodes below it.
	perm := make([]int, n)
	edgesOK := func(i, j int) bool {
		for a := 0; a < i; a++ {
			for _, c := range cnt {
				if c[i*n+a] != c[j*n+perm[a]] || c[a*n+i] != c[perm[a]*n+j] {
					return false
				}
			}
		}
		return true
	}
	used := make([]bool, n)
	var group [][]int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			group = append(group, append([]int(nil), perm...))
			return
		}
		for j := 0; j < n; j++ {
			if used[j] || (isFixed[i] || isFixed[j]) && j != i || !labelOK(i, j) || !edgesOK(i, j) {
				continue
			}
			perm[i], used[j] = j, true
			rec(i + 1)
			used[j] = false
		}
	}
	rec(0)
	return group
}

// SymmetryBreak is the symmetry-breaking plan for matching one pattern
// under one match identity.
type SymmetryBreak struct {
	// Less lists conditions (a, b): an embedding µ is kept only when
	// µ(a) < µ(b). a always precedes b in the order. The conditions keep
	// exactly one embedding of every orbit of the broken group H.
	Less [][2]int
	// Group is |H|: every kept embedding stands for Group embeddings.
	Group int
	// Distinct reports |H| = |K|, K the key-preserving permutations that
	// fix the subpattern: then no two kept embeddings share an AppendKey
	// and no deduplication is needed. Otherwise a key class may hold
	// several H-orbits and the caller must still deduplicate by key.
	Distinct bool
}

// BreakSymmetry derives the symmetry-breaking plan for a matcher that
// assigns pattern nodes in order, with subNodes the COUNTSP subpattern
// that takes part in match identity (nil for COUNTP). H is the group of
// structural automorphisms that fix subNodes and every node a predicate
// mentions: composing an embedding with an element of H preserves
// everything matching checks and the AppendKey. When the group is
// unknown (patterns above 8 nodes) the plan is empty and not Distinct.
//
//egolint:deterministic the conditions must not depend on iteration order
func (p *Pattern) BreakSymmetry(subNodes, order []int) SymmetryBreak {
	fixed := append([]int(nil), subNodes...)
	for _, pr := range p.preds {
		for _, o := range []Operand{pr.L, pr.R} {
			fixed = appendNonNeg(fixed, o.Node, o.EdgeFrom, o.EdgeTo)
		}
	}
	h := Automorphisms(p, fixed, Structural)
	if h == nil {
		return SymmetryBreak{Group: 1}
	}
	k := Automorphisms(p, subNodes, KeyPreserving)
	return SymmetryBreak{Less: orderingConditions(h, order), Group: len(h), Distinct: len(h) == len(k)}
}

func appendNonNeg(dst []int, vs ...int) []int {
	for _, v := range vs {
		if v >= 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// orderingConditions walks order along a stabilizer chain of group: for
// each node v whose orbit under the current stabilizer is larger than
// one, it adds µ(v) < µ(w) for every other w in the orbit and restricts
// to the stabilizer of v. Earlier nodes are fixed by the stabilizer, so w
// always comes after v in order.
func orderingConditions(group [][]int, order []int) [][2]int {
	var less [][2]int
	cur := group
	for _, v := range order {
		if len(cur) <= 1 {
			break
		}
		inOrbit := make([]bool, len(order))
		for _, h := range cur {
			inOrbit[h[v]] = true
		}
		for w, in := range inOrbit {
			if in && w != v {
				less = append(less, [2]int{v, w})
			}
		}
		var stab [][]int
		for _, h := range cur {
			if h[v] == v {
				stab = append(stab, h)
			}
		}
		cur = stab
	}
	return less
}
