// Package pattern models the pattern graphs of the census language: nodes
// bound to variables, undirected / directed / negated edges, attribute
// predicates, and subpatterns (Section II of the paper). It also provides
// the structural machinery the evaluation algorithms need: pattern distance
// matrices, eccentricity-minimizing pivot selection, connected-prefix
// search orders, and canonical match keys for deduplicating automorphic
// embeddings.
package pattern

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"egocensus/internal/graph"
)

// Node is a pattern node: a variable with an optional label constraint.
type Node struct {
	Var   string // variable name, e.g. "A"
	Label string // required node label; "" means unconstrained
}

// Edge is a pattern edge between the nodes at indices From and To.
// A Negated edge asserts the corresponding graph edge must NOT exist; it
// does not contribute to pattern connectivity.
type Edge struct {
	From, To int
	Directed bool
	Negated  bool
}

// Pattern is a pattern graph.
type Pattern struct {
	Name  string
	nodes []Node
	edges []Edge
	preds []Predicate
	subs  map[string][]int // subpattern name -> node indices

	varIndex map[string]int
	// adj caches the positive-edge neighbor indices (both directions,
	// deduplicated), built lazily and published atomically so concurrent
	// queries may share one pattern; mutators reset it.
	adj atomic.Pointer[[][]int]
}

// New returns an empty pattern with the given name.
func New(name string) *Pattern {
	return &Pattern{Name: name, varIndex: map[string]int{}, subs: map[string][]int{}}
}

// AddNode adds a pattern node and returns its index. The label constraint
// may be empty. Duplicate variables are rejected.
func (p *Pattern) AddNode(variable, label string) (int, error) {
	if variable == "" {
		return 0, fmt.Errorf("pattern %s: empty variable name", p.Name)
	}
	if _, dup := p.varIndex[variable]; dup {
		return 0, fmt.Errorf("pattern %s: duplicate variable ?%s", p.Name, variable)
	}
	idx := len(p.nodes)
	p.nodes = append(p.nodes, Node{Var: variable, Label: label})
	p.varIndex[variable] = idx
	p.adj.Store(nil)
	return idx, nil
}

// MustAddNode is AddNode for programmatic pattern construction.
func (p *Pattern) MustAddNode(variable, label string) int {
	idx, err := p.AddNode(variable, label)
	if err != nil {
		panic(err)
	}
	return idx
}

// SetLabel sets (or clears) the label constraint of node idx.
func (p *Pattern) SetLabel(idx int, label string) {
	p.nodes[idx].Label = label
}

// NodeIndex resolves a variable name to its node index.
func (p *Pattern) NodeIndex(variable string) (int, bool) {
	idx, ok := p.varIndex[variable]
	return idx, ok
}

// AddEdge adds an edge between existing node indices.
func (p *Pattern) AddEdge(from, to int, directed, negated bool) error {
	if from < 0 || from >= len(p.nodes) || to < 0 || to >= len(p.nodes) {
		return fmt.Errorf("pattern %s: edge endpoint out of range", p.Name)
	}
	if from == to {
		return fmt.Errorf("pattern %s: self loop on ?%s", p.Name, p.nodes[from].Var)
	}
	p.edges = append(p.edges, Edge{From: from, To: to, Directed: directed, Negated: negated})
	p.adj.Store(nil)
	return nil
}

// MustAddEdge is AddEdge for programmatic pattern construction.
func (p *Pattern) MustAddEdge(from, to int, directed, negated bool) {
	if err := p.AddEdge(from, to, directed, negated); err != nil {
		panic(err)
	}
}

// AddPredicate attaches an attribute predicate.
func (p *Pattern) AddPredicate(pred Predicate) { p.preds = append(p.preds, pred) }

// AddSubpattern registers a named subpattern over the given node indices.
func (p *Pattern) AddSubpattern(name string, nodes []int) error {
	if len(nodes) == 0 {
		return fmt.Errorf("pattern %s: subpattern %s is empty", p.Name, name)
	}
	if _, dup := p.subs[name]; dup {
		return fmt.Errorf("pattern %s: duplicate subpattern %s", p.Name, name)
	}
	for _, idx := range nodes {
		if idx < 0 || idx >= len(p.nodes) {
			return fmt.Errorf("pattern %s: subpattern %s node out of range", p.Name, name)
		}
	}
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	p.subs[name] = sorted
	return nil
}

// Subpattern returns the sorted node indices of a named subpattern.
func (p *Pattern) Subpattern(name string) ([]int, bool) {
	s, ok := p.subs[name]
	return s, ok
}

// SubpatternNames returns the sorted names of all subpatterns.
func (p *Pattern) SubpatternNames() []string {
	names := make([]string, 0, len(p.subs))
	for n := range p.subs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NumNodes returns the number of pattern nodes.
func (p *Pattern) NumNodes() int { return len(p.nodes) }

// Node returns the node at index i.
func (p *Pattern) Node(i int) Node { return p.nodes[i] }

// Edges returns the pattern's edges (shared slice; do not modify).
func (p *Pattern) Edges() []Edge { return p.edges }

// Predicates returns the pattern's predicates (shared slice; do not modify).
func (p *Pattern) Predicates() []Predicate { return p.preds }

// PositiveNeighbors returns the deduplicated indices of nodes connected to
// i by a non-negated edge in either direction.
func (p *Pattern) PositiveNeighbors(i int) []int {
	return p.adjacency()[i]
}

// adjacency returns the positive-edge adjacency, building it on first use.
// Concurrent first callers may each build it; every build is identical.
func (p *Pattern) adjacency() [][]int {
	if adj := p.adj.Load(); adj != nil {
		return *adj
	}
	adj := make([][]int, len(p.nodes))
	seen := make([]map[int]bool, len(p.nodes))
	for i := range seen {
		seen[i] = map[int]bool{}
	}
	add := func(a, b int) {
		if !seen[a][b] {
			seen[a][b] = true
			adj[a] = append(adj[a], b)
		}
	}
	for _, e := range p.edges {
		if e.Negated {
			continue
		}
		add(e.From, e.To)
		add(e.To, e.From)
	}
	for i := range adj {
		sort.Ints(adj[i])
	}
	p.adj.Store(&adj)
	return adj
}

// Validate checks the structural invariants the evaluation algorithms rely
// on: at least one node, and connectivity through positive edges.
func (p *Pattern) Validate() error {
	if len(p.nodes) == 0 {
		return fmt.Errorf("pattern %s: no nodes", p.Name)
	}
	adj := p.adjacency()
	visited := make([]bool, len(p.nodes))
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !visited[m] {
				visited[m] = true
				count++
				stack = append(stack, m)
			}
		}
	}
	if count != len(p.nodes) {
		return fmt.Errorf("pattern %s: not connected through positive edges", p.Name)
	}
	for _, pred := range p.preds {
		if err := pred.validate(p); err != nil {
			return err
		}
	}
	return nil
}

// Distances returns the all-pairs hop-distance matrix over positive edges
// (direction ignored). Entry [i][j] is the hop count, or NumNodes() (an
// unreachable sentinel larger than any real distance) if disconnected —
// Validate rejects such patterns.
func (p *Pattern) Distances() [][]int {
	adj := p.adjacency()
	n := len(p.nodes)
	d := make([][]int, n)
	for i := range d {
		row := make([]int, n)
		for j := range row {
			row[j] = n
		}
		row[i] = 0
		queue := []int{i}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if row[v] > row[u]+1 {
					row[v] = row[u] + 1
					queue = append(queue, v)
				}
			}
		}
		d[i] = row
	}
	return d
}

// Pivot returns the eccentricity-minimizing node of the candidate set,
// with eccentricity measured over the candidates (Section IV-A1:
// v = argmin_x max_y d(x,y) over the anchor nodes), along with its
// eccentricity max_v. candidates nil means all nodes.
func (p *Pattern) Pivot(candidates []int) (pivot, maxDist int) {
	d := p.Distances()
	if candidates == nil {
		candidates = make([]int, len(p.nodes))
		for i := range candidates {
			candidates[i] = i
		}
	}
	pivot, maxDist = -1, int(^uint(0)>>1)
	for _, i := range candidates {
		ecc := 0
		for _, j := range candidates {
			if d[i][j] > ecc {
				ecc = d[i][j]
			}
		}
		if ecc < maxDist {
			pivot, maxDist = i, ecc
		}
	}
	return pivot, maxDist
}

// SearchOrder returns a permutation of node indices such that every prefix
// is connected through positive edges (required by the match-extraction
// join of Algorithm 1). The heuristic starts from the most constrained node
// (label constraint, then highest positive degree) and greedily appends the
// neighbor with the most edges into the prefix.
func (p *Pattern) SearchOrder() []int {
	adj := p.adjacency()
	n := len(p.nodes)
	if n == 0 {
		return nil
	}
	score := func(i int) int {
		s := len(adj[i]) * 2
		if p.nodes[i].Label != "" {
			s++
		}
		return s
	}
	start := 0
	for i := 1; i < n; i++ {
		if score(i) > score(start) {
			start = i
		}
	}
	order := []int{start}
	inOrder := make([]bool, n)
	inOrder[start] = true
	for len(order) < n {
		best, bestLinks := -1, -1
		for i := 0; i < n; i++ {
			if inOrder[i] {
				continue
			}
			links := 0
			for _, j := range adj[i] {
				if inOrder[j] {
					links++
				}
			}
			if links == 0 {
				continue
			}
			if links > bestLinks || (links == bestLinks && score(i) > score(best)) {
				best, bestLinks = i, links
			}
		}
		if best < 0 {
			// Disconnected pattern; Validate would have rejected it, but
			// degrade gracefully by appending remaining nodes.
			for i := 0; i < n; i++ {
				if !inOrder[i] {
					best = i
					break
				}
			}
		}
		order = append(order, best)
		inOrder[best] = true
	}
	return order
}

// String renders the pattern in the language's PATTERN syntax.
func (p *Pattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PATTERN %s {\n", p.Name)
	if len(p.edges) == 0 {
		for _, n := range p.nodes {
			fmt.Fprintf(&b, "  ?%s;\n", n.Var)
		}
	}
	for _, e := range p.edges {
		op := "-"
		if e.Directed {
			op = "->"
		}
		if e.Negated {
			op = "!" + op
		}
		fmt.Fprintf(&b, "  ?%s%s?%s;\n", p.nodes[e.From].Var, op, p.nodes[e.To].Var)
	}
	for _, n := range p.nodes {
		if n.Label != "" {
			fmt.Fprintf(&b, "  [?%s.LABEL='%s'];\n", n.Var, n.Label)
		}
	}
	for _, pred := range p.preds {
		fmt.Fprintf(&b, "  [%s];\n", pred.render(p))
	}
	for _, name := range p.SubpatternNames() {
		vars := make([]string, 0)
		for _, idx := range p.subs[name] {
			vars = append(vars, "?"+p.nodes[idx].Var)
		}
		fmt.Fprintf(&b, "  SUBPATTERN %s {%s;}\n", name, strings.Join(vars, ";"))
	}
	b.WriteString("}")
	return b.String()
}

// Match is an embedding of a pattern into a database graph: Match[i] is the
// image of pattern node i.
type Match []graph.NodeID

// Key returns a canonical identity for the *subgraph* a match denotes, used
// to deduplicate automorphic embeddings: the sorted node set plus the image
// of every (non-negated) pattern edge, plus — when a subpattern is
// designated — the ordered subpattern image, so that automorphic
// re-assignments of the subpattern count separately (Table I row 4
// semantics). subNodes is nil when no subpattern is in play.
func (p *Pattern) Key(m Match, subNodes []int) string {
	nodes := make([]int, len(m))
	for i, v := range m {
		nodes[i] = int(v)
	}
	sort.Ints(nodes)
	var b strings.Builder
	for _, v := range nodes {
		fmt.Fprintf(&b, "%d,", v)
	}
	b.WriteByte('|')
	type pair struct{ a, b int }
	eps := make([]pair, 0, len(p.edges))
	for _, e := range p.edges {
		if e.Negated {
			continue
		}
		a, bb := int(m[e.From]), int(m[e.To])
		if !e.Directed && a > bb {
			a, bb = bb, a
		}
		// Directed and undirected image edges are kept distinct.
		if e.Directed {
			eps = append(eps, pair{a, -bb - 1})
		} else {
			eps = append(eps, pair{a, bb})
		}
	}
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].a != eps[j].a {
			return eps[i].a < eps[j].a
		}
		return eps[i].b < eps[j].b
	})
	for _, e := range eps {
		fmt.Fprintf(&b, "%d:%d,", e.a, e.b)
	}
	if subNodes != nil {
		b.WriteByte('|')
		for _, idx := range subNodes {
			fmt.Fprintf(&b, "%d,", m[idx])
		}
	}
	return b.String()
}

// AppendKey appends a compact binary encoding of the same match identity as
// Key to dst and returns the extended buffer: two AppendKey results for the
// same pattern are equal exactly when the Key strings are. The census
// deduplication loops call it with a reused buffer instead of Key, which
// allocates a formatted string per embedding.
func (p *Pattern) AppendKey(dst []byte, m Match, subNodes []int) []byte {
	// Sorted node multiset. Patterns are small; insertion sort in a stack
	// buffer avoids the sort.Ints allocation.
	var nbuf [12]int32
	nodes := nbuf[:0]
	for _, v := range m {
		nodes = append(nodes, int32(v))
	}
	insertionSortInt32(nodes)
	for _, v := range nodes {
		dst = appendInt32(dst, v)
	}
	// Canonical positive-edge image list, encoded like Key: directed edges
	// flip the second endpoint to -b-1 so orientation participates in
	// identity.
	var ebuf [24]int32
	eps := ebuf[:0]
	for _, e := range p.edges {
		if e.Negated {
			continue
		}
		a, b := int32(m[e.From]), int32(m[e.To])
		if !e.Directed && a > b {
			a, b = b, a
		}
		if e.Directed {
			b = -b - 1
		}
		eps = append(eps, a, b)
	}
	insertionSortPairs(eps)
	for _, v := range eps {
		dst = appendInt32(dst, v)
	}
	// All sections are fixed-width per pattern, so no separators are needed
	// for injectivity.
	for _, idx := range subNodes {
		dst = appendInt32(dst, int32(m[idx]))
	}
	return dst
}

func appendInt32(dst []byte, v int32) []byte {
	u := uint32(v)
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

func insertionSortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// insertionSortPairs sorts a flat (a, b) pair list lexicographically.
func insertionSortPairs(s []int32) {
	for i := 2; i < len(s); i += 2 {
		for j := i; j > 0 && (s[j] < s[j-2] || (s[j] == s[j-2] && s[j+1] < s[j-1])); j -= 2 {
			s[j], s[j-2] = s[j-2], s[j]
			s[j+1], s[j-1] = s[j-1], s[j+1]
		}
	}
}
