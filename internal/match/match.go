// Package match implements subgraph pattern matching (Section III of the
// paper): the paper's CN algorithm built on candidate neighbor sets
// (Algorithm 1), a reimplementation of the GraphQL matching strategy (GQL)
// used as the paper's baseline, and a brute-force reference matcher used to
// cross-validate both in tests.
//
// Matchers enumerate embeddings (variable assignments); Deduplicate
// collapses the automorphic embeddings of one subgraph into one match.
// The census runs on CN alone: CN.Matches returns the distinct matches
// directly, emitting one embedding per subgraph, and a CountRun counts
// them inside a node subset of the parent graph without allocating.
package match

import (
	"slices"

	"egocensus/internal/graph"
	"egocensus/internal/pattern"
)

// Matcher finds all embeddings of a pattern in a graph.
type Matcher interface {
	// Name identifies the algorithm ("CN", "GQL", "BRUTE").
	Name() string
	// Embeddings returns every assignment of graph nodes to pattern nodes
	// that satisfies the pattern's structure, labels, predicates, and
	// negated edges. Automorphic images of the same subgraph appear once
	// per automorphism.
	Embeddings(g *graph.Graph, p *pattern.Pattern) []pattern.Match
}

// NodeSet is a set of graph nodes that masked matching can be restricted
// to. *graph.Reach implements it.
type NodeSet interface {
	// Contains reports set membership.
	Contains(n graph.NodeID) bool
	// Members lists the set's nodes. The order is unspecified; the slice
	// must not be modified.
	Members() []graph.NodeID
}

// Scheduler lends CN.Matches the caller's worker pool.
type Scheduler struct {
	// Workers bounds the parallelism; zero or one runs serially.
	Workers int
	// ForEach runs body(w, i) for every i in [0, n), with w < Workers
	// naming the goroutine that runs item i, and returns when all items
	// are done. cost(i) estimates the work of item i. Nil runs serially.
	ForEach func(n int, cost func(i int) int64, body func(w, i int))
}

// Deduplicate collapses automorphic embeddings of the same subgraph into a
// single match (Section II: a match is a subgraph isomorphic to P). When
// subNodes is non-nil the subpattern image participates in match identity,
// so the same subgraph with a different subpattern assignment is kept
// (COUNTSP semantics). The result is ordered deterministically.
func Deduplicate(p *pattern.Pattern, embeddings []pattern.Match, subNodes []int) []pattern.Match {
	seen := make(map[string]struct{}, len(embeddings))
	out := make([]pattern.Match, 0, len(embeddings))
	var key []byte
	for _, m := range embeddings {
		key = p.AppendKey(key[:0], m, subNodes)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, m)
	}
	slices.SortFunc(out, slices.Compare[pattern.Match])
	return out
}

// FindMatches returns the paper's set of matches M: directly from CN's
// match set, otherwise by deduplicating m's embeddings.
func FindMatches(m Matcher, g *graph.Graph, p *pattern.Pattern) []pattern.Match {
	if cn, ok := m.(CN); ok {
		ms, _ := cn.Matches(g, p, nil, Scheduler{})
		return ms
	}
	return Deduplicate(p, m.Embeddings(g, p), nil)
}

// nodesByLabel groups the graph's nodes by label ID. Index 0 (NoLabel)
// holds unlabeled nodes.
func nodesByLabel(g *graph.Graph) [][]graph.NodeID {
	byLabel := make([][]graph.NodeID, g.Labels().Size())
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		l := g.Label(id)
		byLabel[l] = append(byLabel[l], id)
	}
	return byLabel
}

// patternProfile summarizes the neighborhood constraints of one pattern
// node: the number of positive neighbors required per (constrained) label,
// and the total positive degree.
type patternProfile struct {
	perLabel map[graph.LabelID]int32
	degree   int
}

func buildPatternProfile(g *graph.Graph, p *pattern.Pattern, v int) patternProfile {
	prof := patternProfile{perLabel: map[graph.LabelID]int32{}}
	for _, u := range p.PositiveNeighbors(v) {
		prof.degree++
		if l := p.Node(u).Label; l != "" {
			if id, ok := g.Labels().Lookup(l); ok {
				prof.perLabel[id]++
			} else {
				// The label does not occur in the graph at all: mark the
				// profile unsatisfiable via an impossible requirement.
				prof.perLabel[graph.NoLabel] = int32(g.NumNodes() + 1)
			}
		}
	}
	return prof
}

func (pp patternProfile) matches(g *graph.Graph, n graph.NodeID) bool {
	if g.Degree(n) < pp.degree {
		return false
	}
	np := g.NodeProfile(n)
	//egolint:allow detrange order-insensitive conjunction: the loop only ANDs per-label requirement checks, so iteration order never reaches the result
	for l, c := range pp.perLabel {
		if int(l) >= len(np) || np[l] < c {
			return false
		}
	}
	return true
}

// enumerateCandidates performs step 1 of Algorithm 1: profile-filtered
// candidate sets C(v) for every pattern node. Shared by CN and GQL.
func enumerateCandidates(g *graph.Graph, p *pattern.Pattern) [][]graph.NodeID {
	byLabel := nodesByLabel(g)
	cands := make([][]graph.NodeID, p.NumNodes())
	for v := 0; v < p.NumNodes(); v++ {
		prof := buildPatternProfile(g, p, v)
		var pool []graph.NodeID
		if l := p.Node(v).Label; l != "" {
			if id, ok := g.Labels().Lookup(l); ok {
				pool = byLabel[id]
			}
		} else {
			pool = nil // all nodes
		}
		var out []graph.NodeID
		if pool != nil {
			for _, n := range pool {
				if prof.matches(g, n) {
					out = append(out, n)
				}
			}
		} else if p.Node(v).Label == "" {
			for i := 0; i < g.NumNodes(); i++ {
				n := graph.NodeID(i)
				if prof.matches(g, n) {
					out = append(out, n)
				}
			}
		}
		cands[v] = out
	}
	return cands
}

// edgeReq captures the direction requirements between a pair of adjacent
// pattern nodes, aggregated over all positive edges between them.
type edgeReq struct {
	needOut bool // an edge v -> v' must exist (image: n -> n')
	needIn  bool // an edge v' -> v must exist (image: n' -> n)
	needAny bool // an undirected pattern edge must exist in some direction
}

// pairReqs[v][j] is the requirement between v and its j-th positive
// neighbor (as returned by PositiveNeighbors).
func pairRequirements(p *pattern.Pattern) [][]edgeReq {
	reqs := make([][]edgeReq, p.NumNodes())
	for v := 0; v < p.NumNodes(); v++ {
		nbrs := p.PositiveNeighbors(v)
		reqs[v] = make([]edgeReq, len(nbrs))
		for j, u := range nbrs {
			var r edgeReq
			for _, e := range p.Edges() {
				if e.Negated {
					continue
				}
				switch {
				case e.From == v && e.To == u:
					if e.Directed {
						r.needOut = true
					} else {
						r.needAny = true
					}
				case e.From == u && e.To == v:
					if e.Directed {
						r.needIn = true
					} else {
						r.needAny = true
					}
				}
			}
			reqs[v][j] = r
		}
	}
	return reqs
}

// neighborSets returns the out- and in-neighbor membership sets of n. For
// undirected graphs both views are the incident set.
func neighborSets(g *graph.Graph, n graph.NodeID) (out, in map[graph.NodeID]bool) {
	out = make(map[graph.NodeID]bool, len(g.Out(n)))
	for _, h := range g.Out(n) {
		out[h.To] = true
	}
	if !g.Directed() {
		return out, out
	}
	in = make(map[graph.NodeID]bool, len(g.In(n)))
	for _, h := range g.In(n) {
		in[h.To] = true
	}
	return out, in
}

// satisfies reports whether graph node n' can be the image of pattern node
// u given that n is the image of v, under requirement r.
func (r edgeReq) satisfies(nPrime graph.NodeID, out, in map[graph.NodeID]bool) bool {
	if r.needOut && !out[nPrime] {
		return false
	}
	if r.needIn && !in[nPrime] {
		return false
	}
	if r.needAny && !out[nPrime] && !in[nPrime] {
		return false
	}
	return true
}

// distinctNeighbors returns the deduplicated union of out- and in-neighbors
// of n.
func distinctNeighbors(g *graph.Graph, n graph.NodeID) []graph.NodeID {
	if !g.Directed() {
		outs := g.Out(n)
		res := make([]graph.NodeID, len(outs))
		for i, h := range outs {
			res[i] = h.To
		}
		return res
	}
	seen := make(map[graph.NodeID]bool, len(g.Out(n))+len(g.In(n)))
	res := make([]graph.NodeID, 0, len(g.Out(n))+len(g.In(n)))
	for _, h := range g.Out(n) {
		if !seen[h.To] {
			seen[h.To] = true
			res = append(res, h.To)
		}
	}
	for _, h := range g.In(n) {
		if !seen[h.To] {
			seen[h.To] = true
			res = append(res, h.To)
		}
	}
	return res
}
