// Package graph provides the property-graph substrate used by the
// ego-centric pattern census engine: an adjacency-list graph with node and
// edge attributes, a label dictionary, node profiles, and neighborhood
// traversal primitives.
//
// The graph may be directed or undirected. Nodes are identified by dense
// NodeID values assigned at insertion time; edges by dense EdgeID values.
// Attributes are free-form string key/value pairs; the special node
// attribute "label" is interned through a label dictionary because the
// matching algorithms index on it.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// NodeID identifies a node in a Graph. IDs are dense: valid IDs are
// 0 .. NumNodes()-1.
type NodeID int32

// EdgeID identifies an edge in a Graph. IDs are dense: valid IDs are
// 0 .. NumEdges()-1.
type EdgeID int32

// LabelID is an interned node label. NoLabel marks unlabeled nodes.
type LabelID int32

// NoLabel is the LabelID of nodes without a "label" attribute.
const NoLabel LabelID = 0

// LabelAttr is the reserved node attribute name holding the node label.
const LabelAttr = "label"

// Half is one directed half-edge in an adjacency list.
type Half struct {
	To   NodeID
	Edge EdgeID
}

// Edge is a stored edge. For undirected graphs From/To record insertion
// order but carry no direction semantics.
type Edge struct {
	From NodeID
	To   NodeID
}

// Graph is an in-memory adjacency-list property graph.
//
// For undirected graphs, each edge appears in the Out list of both
// endpoints and In lists are unused. For directed graphs, Out holds
// outgoing and In incoming half-edges.
type Graph struct {
	directed bool

	// frozen marks the graph immutable: it is the read view of a published
	// Snapshot (snapshot.go) and every mutator panics. Lazy derived indexes
	// (CSR, profiles) still build on demand — they are guarded by atomics,
	// so concurrent readers of a frozen graph never race.
	frozen bool
	// epoch is the snapshot version this frozen graph was published at
	// (0 for graphs never owned by a ShardedWriter).
	epoch uint64

	out  [][]Half
	in   [][]Half // directed graphs only
	edgs []Edge

	labels    []LabelID // per node
	labelDict *LabelDict

	nodeAttrs []map[string]string // lazily allocated per node
	edgeAttrs []map[string]string // lazily allocated per edge

	profiles atomic.Pointer[profileRows] // lazily built label profiles (profile.go)

	csr atomic.Pointer[csr] // lazily built flat adjacency view (csr.go)
}

// New returns an empty graph. If directed is true, edges added with AddEdge
// are directed from -> to.
func New(directed bool) *Graph {
	return &Graph{directed: directed, labelDict: NewLabelDict()}
}

// FromParts builds a graph in one pass from a label dictionary, one label
// per node and an edge table in edge-ID order, taking ownership of all
// three. Its adjacency rows equal those an AddNodes + AddEdge loop over
// edges would build, but are counted first and carved from one backing
// array. Each row is capped at its length, so a later append — AddEdge on
// this graph, or a writer's in-place append into spare capacity — moves
// the row instead of overwriting its neighbour. It panics on an
// out-of-range endpoint or label, as AddEdge and the accessors do.
func FromParts(directed bool, dict *LabelDict, labels []LabelID, edges []Edge) *Graph {
	n := len(labels)
	for i, l := range labels {
		if l < 0 || int(l) >= dict.Size() {
			panic(fmt.Sprintf("graph: node %d label %d out of range [0,%d)", i, l, dict.Size()))
		}
	}
	// Rows 0..n-1 are the out rows; a directed graph's in rows follow as
	// n..2n-1. second is the row of e's second half-edge, -1 for an
	// undirected self loop, which has only one half-edge.
	rows := n
	if directed {
		rows = 2 * n
	}
	second := func(e Edge) int {
		switch {
		case directed:
			return n + int(e.To)
		case e.From != e.To:
			return int(e.To)
		}
		return -1
	}
	// Count each row's length into start[row+1]; the prefix sum turns the
	// counts into row offsets in the backing array.
	start := make([]int, rows+1)
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) endpoint out of range [0,%d)", e.From, e.To, n))
		}
		start[e.From+1]++
		if r := second(e); r >= 0 {
			start[r+1]++
		}
	}
	for i := 1; i <= rows; i++ {
		start[i] += start[i-1]
	}
	backing := make([]Half, start[rows])
	next := append([]int(nil), start[:rows]...)
	for id, e := range edges {
		backing[next[e.From]] = Half{To: e.To, Edge: EdgeID(id)}
		next[e.From]++
		if r := second(e); r >= 0 {
			backing[next[r]] = Half{To: e.From, Edge: EdgeID(id)}
			next[r]++
		}
	}
	all := make([][]Half, rows)
	for v := range all {
		if lo, hi := start[v], start[v+1]; hi > lo {
			all[v] = backing[lo:hi:hi]
		}
	}
	g := &Graph{
		directed:  directed,
		out:       all[:n:n],
		edgs:      edges,
		labels:    labels,
		labelDict: dict,
		nodeAttrs: make([]map[string]string, n),
		edgeAttrs: make([]map[string]string, len(edges)),
	}
	if directed {
		g.in = all[n:]
	}
	return g
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Frozen reports whether the graph is an immutable snapshot view.
func (g *Graph) Frozen() bool { return g.frozen }

// mustMutable panics when the graph has been frozen as a snapshot: all
// mutation must go through a ShardedWriter, which clones before it writes.
func (g *Graph) mustMutable() {
	if g.frozen {
		panic(fmt.Sprintf("graph: mutation of frozen snapshot (epoch %d); mutate through a ShardedWriter", g.epoch))
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edgs) }

// Labels returns the label dictionary.
func (g *Graph) Labels() *LabelDict { return g.labelDict }

// AddNode adds a node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.mustMutable()
	id := NodeID(len(g.out))
	g.out = append(g.out, nil)
	if g.directed {
		g.in = append(g.in, nil)
	}
	g.labels = append(g.labels, NoLabel)
	g.nodeAttrs = append(g.nodeAttrs, nil)
	g.invalidateProfiles()
	g.invalidateCSR()
	return id
}

// AddNodes adds n nodes and returns the ID of the first.
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.out))
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return first
}

// AddEdge adds an edge between from and to and returns its ID. Self loops
// and parallel edges are permitted by the representation; the census
// semantics of the paper assume simple graphs, and the generators in
// internal/gen only produce simple graphs.
func (g *Graph) AddEdge(from, to NodeID) EdgeID {
	g.mustMutable()
	g.mustNode(from)
	g.mustNode(to)
	id := EdgeID(len(g.edgs))
	g.edgs = append(g.edgs, Edge{From: from, To: to})
	g.edgeAttrs = append(g.edgeAttrs, nil)
	g.out[from] = append(g.out[from], Half{To: to, Edge: id})
	if g.directed {
		g.in[to] = append(g.in[to], Half{To: from, Edge: id})
	} else if from != to {
		g.out[to] = append(g.out[to], Half{To: from, Edge: id})
	}
	g.invalidateProfiles()
	g.invalidateCSR()
	return id
}

func (g *Graph) mustNode(n NodeID) {
	if n < 0 || int(n) >= len(g.out) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", n, len(g.out)))
	}
}

// HasEdge reports whether an edge from -> to exists (any edge between the
// endpoints for undirected graphs).
func (g *Graph) HasEdge(from, to NodeID) bool {
	g.mustNode(from)
	g.mustNode(to)
	// Scan the shorter list when undirected.
	list := g.out[from]
	if !g.directed && len(g.out[to]) < len(list) {
		list, from, to = g.out[to], to, from
	}
	for _, h := range list {
		if h.To == to {
			return true
		}
	}
	return false
}

// FindEdge returns the ID of an edge from -> to, or -1 if none exists.
func (g *Graph) FindEdge(from, to NodeID) EdgeID {
	g.mustNode(from)
	g.mustNode(to)
	for _, h := range g.out[from] {
		if h.To == to {
			return h.Edge
		}
	}
	return -1
}

// Out returns the outgoing half-edges of n (all incident half-edges for
// undirected graphs). The returned slice is owned by the graph and must not
// be modified.
func (g *Graph) Out(n NodeID) []Half {
	g.mustNode(n)
	return g.out[n]
}

// In returns the incoming half-edges of n. For undirected graphs it is the
// same as Out.
func (g *Graph) In(n NodeID) []Half {
	g.mustNode(n)
	if !g.directed {
		return g.out[n]
	}
	return g.in[n]
}

// Degree returns the degree of n: out-degree + in-degree for directed
// graphs, number of incident edges for undirected graphs.
func (g *Graph) Degree(n NodeID) int {
	g.mustNode(n)
	if g.directed {
		return len(g.out[n]) + len(g.in[n])
	}
	return len(g.out[n])
}

// Edge returns the endpoints of edge e.
func (g *Graph) Edge(e EdgeID) Edge {
	if e < 0 || int(e) >= len(g.edgs) {
		panic(fmt.Sprintf("graph: edge %d out of range [0,%d)", e, len(g.edgs)))
	}
	return g.edgs[e]
}

// SetLabel sets the label attribute of n, interning it in the dictionary.
func (g *Graph) SetLabel(n NodeID, label string) {
	g.mustMutable()
	g.mustNode(n)
	g.labels[n] = g.labelDict.Intern(label)
	g.invalidateProfiles()
}

// Label returns the interned label of n (NoLabel if unset).
func (g *Graph) Label(n NodeID) LabelID {
	g.mustNode(n)
	return g.labels[n]
}

// LabelString returns the string label of n ("" if unset).
func (g *Graph) LabelString(n NodeID) string {
	return g.labelDict.Name(g.Label(n))
}

// SetNodeAttr sets an attribute on node n. Setting LabelAttr is equivalent
// to SetLabel.
func (g *Graph) SetNodeAttr(n NodeID, key, value string) {
	g.mustMutable()
	g.mustNode(n)
	if key == LabelAttr {
		g.SetLabel(n, value)
		return
	}
	if g.nodeAttrs[n] == nil {
		g.nodeAttrs[n] = make(map[string]string, 2)
	}
	g.nodeAttrs[n][key] = value
}

// NodeAttr returns an attribute of node n. The LabelAttr key returns the
// label. ok is false when the attribute is unset.
func (g *Graph) NodeAttr(n NodeID, key string) (value string, ok bool) {
	g.mustNode(n)
	if key == LabelAttr {
		if g.labels[n] == NoLabel {
			return "", false
		}
		return g.labelDict.Name(g.labels[n]), true
	}
	if g.nodeAttrs[n] == nil {
		return "", false
	}
	v, ok := g.nodeAttrs[n][key]
	return v, ok
}

// NodeAttrs returns a copy of all attributes of node n, including the label.
func (g *Graph) NodeAttrs(n NodeID) map[string]string {
	g.mustNode(n)
	m := make(map[string]string, len(g.nodeAttrs[n])+1)
	for k, v := range g.nodeAttrs[n] {
		m[k] = v
	}
	if g.labels[n] != NoLabel {
		m[LabelAttr] = g.labelDict.Name(g.labels[n])
	}
	return m
}

// NodeAttrMap returns the attributes of node n, without the label:
// SetNodeAttr routes LabelAttr to SetLabel, so the map never holds it. The
// map is owned by the graph and must not be modified; it is nil when n has
// no attributes.
func (g *Graph) NodeAttrMap(n NodeID) map[string]string {
	g.mustNode(n)
	return g.nodeAttrs[n]
}

// SetEdgeAttr sets an attribute on edge e.
func (g *Graph) SetEdgeAttr(e EdgeID, key, value string) {
	g.mustMutable()
	if e < 0 || int(e) >= len(g.edgs) {
		panic(fmt.Sprintf("graph: edge %d out of range [0,%d)", e, len(g.edgs)))
	}
	if g.edgeAttrs[e] == nil {
		g.edgeAttrs[e] = make(map[string]string, 2)
	}
	g.edgeAttrs[e][key] = value
}

// EdgeAttr returns an attribute of edge e.
func (g *Graph) EdgeAttr(e EdgeID, key string) (value string, ok bool) {
	if e < 0 || int(e) >= len(g.edgs) {
		panic(fmt.Sprintf("graph: edge %d out of range [0,%d)", e, len(g.edgs)))
	}
	if g.edgeAttrs[e] == nil {
		return "", false
	}
	v, ok := g.edgeAttrs[e][key]
	return v, ok
}

// EdgeAttrMap returns the attributes of edge e. The map is owned by the
// graph and must not be modified; it is nil when e has no attributes.
func (g *Graph) EdgeAttrMap(e EdgeID) map[string]string {
	if e < 0 || int(e) >= len(g.edgs) {
		panic(fmt.Sprintf("graph: edge %d out of range [0,%d)", e, len(g.edgs)))
	}
	return g.edgeAttrs[e]
}

// Neighbors returns the sorted distinct neighbor IDs of n (union of in and
// out neighbors for directed graphs), excluding n itself unless a self loop
// exists.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	g.mustNode(n)
	all := g.ensureCSR().all(n)
	out := append(make([]NodeID, 0, len(all)), all...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Compact duplicates (parallel edges, reciprocal directed pairs).
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		directed:  g.directed,
		out:       make([][]Half, len(g.out)),
		edgs:      append([]Edge(nil), g.edgs...),
		labels:    append([]LabelID(nil), g.labels...),
		labelDict: g.labelDict.Clone(),
		nodeAttrs: make([]map[string]string, len(g.nodeAttrs)),
		edgeAttrs: make([]map[string]string, len(g.edgeAttrs)),
	}
	for i, l := range g.out {
		c.out[i] = append([]Half(nil), l...)
	}
	if g.directed {
		c.in = make([][]Half, len(g.in))
		for i, l := range g.in {
			c.in[i] = append([]Half(nil), l...)
		}
	}
	for i, m := range g.nodeAttrs {
		if m != nil {
			c.nodeAttrs[i] = make(map[string]string, len(m))
			for k, v := range m {
				c.nodeAttrs[i][k] = v
			}
		}
	}
	for i, m := range g.edgeAttrs {
		if m != nil {
			c.edgeAttrs[i] = make(map[string]string, len(m))
			for k, v := range m {
				c.edgeAttrs[i][k] = v
			}
		}
	}
	return c
}
