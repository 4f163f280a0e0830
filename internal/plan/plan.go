// Package plan is the logical-planning and optimization layer of the
// query pipeline. The four layers are:
//
//	lang     — parsing: source text to AST (internal/lang)
//	plan     — this package: logical plan trees built from the AST, a cost
//	           model over graph.Stats snapshots, and a statistics-driven
//	           optimizer that chooses among the six census algorithms
//	execute  — physical operators over the census drivers (internal/core)
//	render   — result tables (internal/core)
//
// The package deliberately does not import internal/core: core compiles
// physical pipelines from the Physical plans produced here, so the
// algorithm identities are plain strings shared by convention (the
// paper's names, e.g. "PT-OPT").
package plan

import (
	"fmt"

	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/pattern"
)

// Node is a logical plan node. Children are rendered as a tree by Explain.
type Node interface {
	// Label renders the node's head line for plan display.
	Label() string
	Children() []Node
}

// NodeScan is the leaf: the focal-candidate scan over all graph nodes.
// Stats is attached by Optimize.
type NodeScan struct {
	Stats *graph.Stats
}

// Label implements Node.
func (n *NodeScan) Label() string {
	if n.Stats == nil {
		return "NodeScan"
	}
	return fmt.Sprintf("NodeScan [%d nodes, %d edges, %d labels, directed=%v]",
		n.Stats.Nodes, n.Stats.Edges, n.Stats.NumLabels(), n.Stats.Directed)
}

// Children implements Node.
func (n *NodeScan) Children() []Node { return nil }

// FocalSelect restricts the focal nodes (or ordered pairs) by the WHERE
// clause. Selectivity is annotated by Optimize.
type FocalSelect struct {
	Where       lang.Expr
	Pairwise    bool
	Selectivity float64
	Input       Node
}

// Label implements Node.
func (n *FocalSelect) Label() string {
	unit := "nodes"
	if n.Pairwise {
		unit = "ordered pairs"
	}
	return fmt.Sprintf("FocalSelect [WHERE %s] over %s (est selectivity %.3g)",
		lang.ExprString(n.Where), unit, n.Selectivity)
}

// Children implements Node.
func (n *FocalSelect) Children() []Node { return []Node{n.Input} }

// PatternDef is a leaf naming one pattern an aggregate counts, with the
// structural facts the cost model uses.
type PatternDef struct {
	Pattern    *pattern.Pattern
	Subpattern string
}

// Label implements Node.
func (n *PatternDef) Label() string {
	p := n.Pattern
	labeled, negated := 0, 0
	for i := 0; i < p.NumNodes(); i++ {
		if p.Node(i).Label != "" {
			labeled++
		}
	}
	for _, e := range p.Edges() {
		if e.Negated {
			negated++
		}
	}
	// The pivot ND-PVOT runs with: chosen among the anchors (nil: all nodes).
	var anchors []int
	if n.Subpattern != "" {
		anchors, _ = p.Subpattern(n.Subpattern)
	}
	pivot, ecc := p.Pivot(anchors)
	s := fmt.Sprintf("PatternDef [%s: %d nodes (%d labeled), %d edges (%d negated), %d predicates, pivot ?%s ecc %d]",
		p.Name, p.NumNodes(), labeled, len(p.Edges()), negated, len(p.Predicates()), p.Node(pivot).Var, ecc)
	if n.Subpattern != "" {
		s += fmt.Sprintf(" anchors=subpattern %q (%d of %d nodes)", n.Subpattern, len(anchors), p.NumNodes())
	}
	return s
}

// Children implements Node.
func (n *PatternDef) Children() []Node { return nil }

// Agg is one COUNTP/COUNTSP aggregate with its pattern resolved.
type Agg struct {
	Pattern    *pattern.Pattern
	Subpattern string
}

// Census is a single-node census over one or more aggregates sharing the
// SUBGRAPH(ID, k) neighborhood.
type Census struct {
	Aggs  []Agg
	K     int
	Input Node
}

// Label implements Node.
func (n *Census) Label() string {
	return fmt.Sprintf("Census [%d aggregate(s), SUBGRAPH(ID, %d)]", len(n.Aggs), n.K)
}

// Children implements Node.
func (n *Census) Children() []Node {
	var out []Node
	for i := range n.Aggs {
		out = append(out, &PatternDef{Pattern: n.Aggs[i].Pattern, Subpattern: n.Aggs[i].Subpattern})
	}
	return append(out, n.Input)
}

// PairCensus is a pairwise census over neighborhood intersections/unions.
type PairCensus struct {
	Agg   Agg
	K     int
	Union bool
	Input Node
}

// Label implements Node.
func (n *PairCensus) Label() string {
	kind := "SUBGRAPH-INTERSECTION"
	if n.Union {
		kind = "SUBGRAPH-UNION"
	}
	return fmt.Sprintf("PairCensus [%s(n1, n2, %d)]", kind, n.K)
}

// Children implements Node.
func (n *PairCensus) Children() []Node {
	return []Node{&PatternDef{Pattern: n.Agg.Pattern, Subpattern: n.Agg.Subpattern}, n.Input}
}

// OrderLimit applies ORDER BY and/or LIMIT post-processing.
type OrderLimit struct {
	Order *lang.OrderBy
	Limit int
	Input Node
}

// Label implements Node.
func (n *OrderLimit) Label() string {
	s := "OrderLimit ["
	if n.Order != nil {
		s += "ORDER BY "
		if n.Order.ByCount {
			s += "COUNT"
		} else {
			s += n.Order.Col.String()
		}
		if n.Order.Desc {
			s += " DESC"
		} else {
			s += " ASC"
		}
	}
	if n.Limit > 0 {
		if n.Order != nil {
			s += " "
		}
		s += fmt.Sprintf("LIMIT %d", n.Limit)
	}
	return s + "]"
}

// Children implements Node.
func (n *OrderLimit) Children() []Node { return []Node{n.Input} }

// Logical is a built (un-optimized) plan for one SELECT statement.
type Logical struct {
	Root  Node
	Query *lang.SelectStmt
	// Pair reports a pairwise census; Aggs then has exactly one entry.
	Pair bool
	Aggs []Agg
	K    int
	// Union selects SUBGRAPH-UNION for pairwise censuses.
	Union bool
}

// Build constructs the logical plan for q, resolving pattern references
// against the catalog. It performs the semantic validation the engine
// historically did inline: at least one aggregate, known patterns, and a
// single aggregate for pairwise censuses.
func Build(q *lang.SelectStmt, catalog map[string]*pattern.Pattern) (*Logical, error) {
	aggs := q.CountItems()
	if len(aggs) == 0 {
		return nil, fmt.Errorf("plan: query has no COUNTP/COUNTSP aggregate")
	}
	l := &Logical{Query: q, K: aggs[0].Neighborhood.K}
	for _, agg := range aggs {
		pat, ok := catalog[agg.PatternName]
		if !ok {
			return nil, fmt.Errorf("plan: unknown pattern %q", agg.PatternName)
		}
		l.Aggs = append(l.Aggs, Agg{Pattern: pat, Subpattern: agg.Subpattern})
	}
	l.Pair = aggs[0].Neighborhood.Kind != lang.NSubgraph
	l.Union = aggs[0].Neighborhood.Kind == lang.NUnion
	if l.Pair && len(aggs) > 1 {
		return nil, fmt.Errorf("plan: pairwise queries support a single aggregate")
	}

	var input Node = &NodeScan{}
	if q.Where != nil {
		input = &FocalSelect{Where: q.Where, Pairwise: l.Pair, Selectivity: 1, Input: input}
	}
	if l.Pair {
		l.Root = &PairCensus{Agg: l.Aggs[0], K: l.K, Union: l.Union, Input: input}
	} else {
		l.Root = &Census{Aggs: l.Aggs, K: l.K, Input: input}
	}
	if q.Order != nil || q.Limit > 0 {
		l.Root = &OrderLimit{Order: q.Order, Limit: q.Limit, Input: l.Root}
	}
	return l, nil
}
