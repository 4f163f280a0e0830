package core

import (
	"fmt"

	"egocensus/internal/graph"
	"egocensus/internal/pattern"
)

// Incremental maintains a single-node census over a growing graph: after
// every edge insertion the per-node counts are updated without recomputing
// the census from scratch. This extends the paper toward dynamic graphs
// (its algorithms are batch-only); deletions are not supported because the
// underlying graph is append-only.
//
// An inserted edge (u, v) changes the census in three ways, each handled
// separately:
//
//  1. New matches appear — every new match must use the new edge as the
//     image of some positive pattern edge, so a constrained search seeded
//     at (u, v) finds exactly the additions.
//  2. Matches die — only through negated pattern edges whose image the new
//     edge completes; candidates are matches containing both u and v.
//  3. Neighborhoods grow — shortest distances can only shrink, so a
//     surviving match M can only gain containing nodes. Only matches with
//     an anchor within k-1 hops of u or v can be affected; for those,
//     N[M] is recomputed before and after the insertion and the difference
//     is credited.
type Incremental struct {
	g    *graph.Graph
	spec Spec
	opt  Options

	counts    []int64
	matches   []pattern.Match
	alive     []bool
	keys      map[string]int // canonical binary match key -> index
	byNode    map[graph.NodeID][]int
	anchorIdx []int
	subNodes  []int
	keyBuf    []byte
	numAlive  int
}

// NewIncremental computes the initial census (all nodes focal) and returns
// the maintained state. Patterns must have at least one positive edge
// (isolated-node patterns would gain matches on AddNode, which carries no
// label yet).
func NewIncremental(g *graph.Graph, spec Spec, opt Options) (*Incremental, error) {
	if spec.Focal != nil {
		return nil, fmt.Errorf("census: incremental maintenance tracks all nodes; Focal must be nil")
	}
	if err := spec.Validate(g); err != nil {
		return nil, err
	}
	hasPositive := false
	for _, e := range spec.Pattern.Edges() {
		if !e.Negated {
			hasPositive = true
			break
		}
	}
	if !hasPositive {
		return nil, fmt.Errorf("census: incremental maintenance requires a pattern with at least one positive edge")
	}
	inc := &Incremental{
		g:         g,
		spec:      spec,
		opt:       opt,
		counts:    make([]int64, g.NumNodes()),
		keys:      map[string]int{},
		byNode:    map[graph.NodeID][]int{},
		anchorIdx: spec.anchorNodes(),
		subNodes:  spec.subNodesForKey(),
	}
	matches, _, err := globalMatchesGuarded(g, spec, opt, nil)
	if err != nil {
		return nil, err
	}
	for _, m := range matches {
		inc.insertMatch(m, true)
	}
	return inc, nil
}

// insertMatch registers a match; when credit is true the containing nodes'
// counts are incremented. Dedup uses the same binary canonical keys
// (Pattern.AppendKey) the batch drivers use — the fmt-based string keys
// this path once built allocated an order of magnitude more per match.
func (inc *Incremental) insertMatch(m pattern.Match, credit bool) {
	inc.keyBuf = inc.spec.Pattern.AppendKey(inc.keyBuf[:0], m, inc.subNodes)
	key := string(inc.keyBuf)
	if _, dup := inc.keys[key]; dup {
		return
	}
	idx := len(inc.matches)
	inc.matches = append(inc.matches, m)
	inc.alive = append(inc.alive, true)
	inc.keys[key] = idx
	inc.numAlive++
	seen := map[graph.NodeID]bool{}
	for _, n := range m {
		if !seen[n] {
			seen[n] = true
			inc.byNode[n] = append(inc.byNode[n], idx)
		}
	}
	if credit {
		for n := range inc.containingNodes(m) {
			inc.counts[n]++
		}
	}
}

// containingNodes computes N[M]: the nodes whose k-hop neighborhood
// contains all anchor images (per-anchor BFS intersection, as in PT-BAS).
func (inc *Incremental) containingNodes(m pattern.Match) map[graph.NodeID]bool {
	anchors := matchAnchors(inc.spec, inc.anchorIdx, m)
	var res map[graph.NodeID]bool
	s := graph.AcquireScratch(inc.g.NumNodes())
	defer s.Release()
	for _, a := range anchors {
		reach := inc.g.KHop(a, inc.spec.K, s)
		if res == nil {
			res = make(map[graph.NodeID]bool, reach.Len())
			for _, n := range reach.Nodes {
				res[n] = true
			}
			continue
		}
		for n := range res {
			if !reach.Contains(n) {
				delete(res, n)
			}
		}
	}
	return res
}

// Counts returns the maintained per-node counts (live slice; do not
// modify).
func (inc *Incremental) Counts() []int64 { return inc.counts }

// NumMatches returns the number of live matches.
func (inc *Incremental) NumMatches() int { return inc.numAlive }

// Graph exposes the maintained graph. Mutate it only through AddNode and
// AddEdge (and attribute setters on nodes/edges not yet matched).
func (inc *Incremental) Graph() *graph.Graph { return inc.g }

// AddNode appends a node (no matches can involve it until edges arrive).
func (inc *Incremental) AddNode() graph.NodeID {
	id := inc.g.AddNode()
	inc.noteNode()
	return id
}

// noteNode extends the count column after a node append performed on the
// underlying graph (directly by AddNode, or externally by a Maintainer
// driving a shared replica).
func (inc *Incremental) noteNode() {
	inc.counts = append(inc.counts, 0)
}

// edgeTxn carries one edge insertion's pre-state between beforeAdd (which
// must run while the graph still lacks the edge) and afterAdd (which runs
// once it is inserted). The split lets a Maintainer apply a single graph
// mutation on behalf of many registered queries.
type edgeTxn struct {
	u, v     graph.NodeID
	affected map[int]bool
	before   map[int]map[graph.NodeID]bool
}

// AddEdge inserts the edge u-v (u -> v for directed graphs) and updates
// the census.
func (inc *Incremental) AddEdge(u, v graph.NodeID) graph.EdgeID {
	t := inc.beforeAdd(u, v)
	e := inc.g.AddEdge(u, v)
	inc.afterAdd(t)
	return e
}

// beforeAdd collects the pre-insertion state the update needs: which
// matches may be affected, and their containment sets under the old
// distances. The graph must not yet contain the edge.
func (inc *Incremental) beforeAdd(u, v graph.NodeID) *edgeTxn {
	k := inc.spec.K

	// Matches whose containment sets may grow: an anchor within k-1 of
	// either endpoint (old distances). Matches containing both endpoints
	// may die through negated edges; include them so their old N[M] is
	// known.
	affected := map[int]bool{}
	if k >= 1 {
		collect := func(src graph.NodeID) {
			inc.g.BFS(src, k-1, func(n graph.NodeID, _ int) bool {
				for _, mi := range inc.byNode[n] {
					if inc.alive[mi] && inc.isAnchorImage(mi, n) {
						affected[mi] = true
					}
				}
				return true
			})
		}
		collect(u)
		collect(v)
	}
	for _, mi := range inc.byNode[u] {
		if inc.alive[mi] && inc.matchContains(mi, v) {
			affected[mi] = true
		}
	}

	before := make(map[int]map[graph.NodeID]bool, len(affected))
	for mi := range affected {
		before[mi] = inc.containingNodes(inc.matches[mi])
	}
	return &edgeTxn{u: u, v: v, affected: affected, before: before}
}

// afterAdd applies the census update for an edge insertion whose
// pre-state t was collected by beforeAdd; the graph must now contain the
// edge.
func (inc *Incremental) afterAdd(t *edgeTxn) {
	u, v := t.u, t.v

	// Deaths: negated-edge images completed by (u, v).
	for _, mi := range inc.byNode[u] {
		if !inc.alive[mi] || !inc.matchContains(mi, v) {
			continue
		}
		m := inc.matches[mi]
		if inc.spec.Pattern.EvalAll(inc.g, m) {
			continue
		}
		inc.alive[mi] = false
		inc.numAlive--
		old := t.before[mi]
		if old == nil {
			// Not collected above (k == 0 with anchors elsewhere): its
			// containment set is unchanged by the new edge except through
			// the edge itself, which cannot shrink it; recompute works
			// because death accounting only needs the pre-insertion set,
			// and for k == 0 distances are insertion-invariant.
			old = inc.containingNodes(m)
		}
		for n := range old {
			inc.counts[n]--
		}
	}

	// Growth of surviving affected matches: distances only shrink, so the
	// new containment set is a superset of the old one.
	for mi := range t.affected {
		if !inc.alive[mi] {
			continue
		}
		after := inc.containingNodes(inc.matches[mi])
		for n := range after {
			if !t.before[mi][n] {
				inc.counts[n]++
			}
		}
	}

	// New matches: constrained search with (u, v) as the image of each
	// compatible positive pattern edge.
	for _, m := range inc.newEmbeddings(u, v) {
		inc.insertMatch(m, true)
	}
}

// rebuild recomputes the census state from scratch against the current
// graph. The Maintainer falls back to it for mutations the incremental
// update rules do not cover (label changes, which can create and destroy
// matches anywhere the label appears).
func (inc *Incremental) rebuild() {
	inc.counts = make([]int64, inc.g.NumNodes())
	inc.matches = inc.matches[:0]
	inc.alive = inc.alive[:0]
	inc.keys = map[string]int{}
	inc.byNode = map[graph.NodeID][]int{}
	inc.numAlive = 0
	matches, _, _ := globalMatchesGuarded(inc.g, inc.spec, inc.opt, nil) // a nil guard never fails
	for _, m := range matches {
		inc.insertMatch(m, true)
	}
}

func (inc *Incremental) isAnchorImage(mi int, n graph.NodeID) bool {
	m := inc.matches[mi]
	for _, idx := range inc.anchorIdx {
		if m[idx] == n {
			return true
		}
	}
	return false
}

func (inc *Incremental) matchContains(mi int, n graph.NodeID) bool {
	for _, x := range inc.matches[mi] {
		if x == n {
			return true
		}
	}
	return false
}

// newEmbeddings finds all embeddings that map some positive pattern edge
// onto the newly inserted edge (u, v). Standard backtracking restricted to
// the fixed seed pair; the pattern is connected, so every other node is
// reached through adjacency.
func (inc *Incremental) newEmbeddings(u, v graph.NodeID) []pattern.Match {
	p := inc.spec.Pattern
	g := inc.g
	var out []pattern.Match

	labelOK := func(idx int, n graph.NodeID) bool {
		want := p.Node(idx).Label
		return want == "" || g.LabelString(n) == want
	}

	seeds := [][2]graph.NodeID{{u, v}, {v, u}}

	for _, e := range p.Edges() {
		if e.Negated {
			continue
		}
		for _, seed := range seeds {
			a, b := seed[0], seed[1]
			if e.Directed && g.Directed() && (a != u || b != v) {
				// The new edge runs u -> v; a directed pattern edge can
				// only map From->To onto it in that orientation.
				continue
			}
			if a == b || !labelOK(e.From, a) || !labelOK(e.To, b) {
				continue
			}
			assignment := make(pattern.Match, p.NumNodes())
			for i := range assignment {
				assignment[i] = -1
			}
			assignment[e.From], assignment[e.To] = a, b
			inc.extend(assignment, map[graph.NodeID]bool{a: true, b: true}, &out)
		}
	}
	return out
}

// extend grows a partial assignment until complete, choosing next an
// unassigned pattern node adjacent to an assigned one.
func (inc *Incremental) extend(assignment pattern.Match, used map[graph.NodeID]bool, out *[]pattern.Match) {
	p := inc.spec.Pattern
	g := inc.g

	next := -1
	var anchorAssigned int
	for idx := 0; idx < p.NumNodes() && next < 0; idx++ {
		if assignment[idx] >= 0 {
			continue
		}
		for _, nb := range p.PositiveNeighbors(idx) {
			if assignment[nb] >= 0 {
				next = idx
				anchorAssigned = nb
				break
			}
		}
	}
	if next < 0 {
		// Complete (the pattern is connected, so no unassigned node can
		// lack an assigned neighbor unless all are assigned).
		m := make(pattern.Match, len(assignment))
		copy(m, assignment)
		if checkPositiveEdges(g, p, m) && p.EvalAll(g, m) {
			*out = append(*out, m)
		}
		return
	}
	wantLabel := p.Node(next).Label
	base := assignment[anchorAssigned]
	for _, cand := range distinctNeighborsUndirected(g, base) {
		if used[cand] {
			continue
		}
		if wantLabel != "" && g.LabelString(cand) != wantLabel {
			continue
		}
		assignment[next] = cand
		used[cand] = true
		inc.extend(assignment, used, out)
		delete(used, cand)
		assignment[next] = -1
	}
}

// checkPositiveEdges verifies every positive pattern edge under m
// (the extension only guaranteed one adjacency per node).
func checkPositiveEdges(g *graph.Graph, p *pattern.Pattern, m pattern.Match) bool {
	for _, e := range p.Edges() {
		if e.Negated {
			continue
		}
		a, b := m[e.From], m[e.To]
		if e.Directed && g.Directed() {
			if !hasDirectedEdge(g, a, b) {
				return false
			}
		} else if !hasDirectedEdge(g, a, b) && !hasDirectedEdge(g, b, a) {
			return false
		}
	}
	return true
}

func hasDirectedEdge(g *graph.Graph, a, b graph.NodeID) bool {
	for _, h := range g.Out(a) {
		if h.To == b {
			return true
		}
	}
	return false
}

func distinctNeighborsUndirected(g *graph.Graph, n graph.NodeID) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	add := func(m graph.NodeID) {
		if m != n && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	for _, h := range g.Out(n) {
		add(h.To)
	}
	if g.Directed() {
		for _, h := range g.In(n) {
			add(h.To)
		}
	}
	return out
}
