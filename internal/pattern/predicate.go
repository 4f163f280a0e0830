package pattern

import (
	"fmt"
	"strconv"
	"strings"

	"egocensus/internal/graph"
)

// CmpOp is a comparison operator in an attribute predicate.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in query syntax.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Operand is one side of a predicate: a node attribute reference
// (?A.attr), an edge attribute reference (EDGE(?A,?B).attr), a constant,
// or an unbound $name parameter slot.
type Operand struct {
	// Node >= 0 selects a node-attribute reference on that pattern node.
	Node int
	// EdgeFrom/EdgeTo >= 0 select an edge-attribute reference on the edge
	// between those pattern nodes (in either direction for undirected
	// pattern edges).
	EdgeFrom, EdgeTo int
	// Attr is the attribute name for node/edge references.
	Attr string
	// Const holds the literal for constant operands.
	Const string
	// ParamName marks an unbound parameter slot ($name): the pattern
	// cannot be matched until BindParams substitutes a constant.
	ParamName string
}

// NodeAttr returns an operand referencing attr of pattern node idx.
func NodeAttr(idx int, attr string) Operand {
	return Operand{Node: idx, EdgeFrom: -1, EdgeTo: -1, Attr: attr}
}

// EdgeAttr returns an operand referencing attr of the pattern edge between
// nodes a and b.
func EdgeAttr(a, b int, attr string) Operand {
	return Operand{Node: -1, EdgeFrom: a, EdgeTo: b, Attr: attr}
}

// Const returns a constant operand.
func Const(v string) Operand {
	return Operand{Node: -1, EdgeFrom: -1, EdgeTo: -1, Const: v}
}

// Param returns an unbound parameter-slot operand ($name); BindParams
// substitutes the value at execution time.
func Param(name string) Operand {
	return Operand{Node: -1, EdgeFrom: -1, EdgeTo: -1, ParamName: name}
}

func (o Operand) isConst() bool { return o.Node < 0 && o.EdgeFrom < 0 && o.ParamName == "" }

func (o Operand) isParam() bool { return o.ParamName != "" }

// Predicate is a comparison between two operands, evaluated on a candidate
// match.
type Predicate struct {
	Op   CmpOp
	L, R Operand
}

func (pr Predicate) validate(p *Pattern) error {
	for _, o := range []Operand{pr.L, pr.R} {
		if o.Node >= len(p.nodes) || o.EdgeFrom >= len(p.nodes) || o.EdgeTo >= len(p.nodes) {
			return fmt.Errorf("pattern %s: predicate references unknown node", p.Name)
		}
		if o.EdgeFrom >= 0 && o.EdgeTo < 0 {
			return fmt.Errorf("pattern %s: malformed edge operand", p.Name)
		}
	}
	return nil
}

func (o Operand) render(p *Pattern) string {
	switch {
	case o.Node >= 0:
		return fmt.Sprintf("?%s.%s", p.nodes[o.Node].Var, o.Attr)
	case o.EdgeFrom >= 0:
		return fmt.Sprintf("EDGE(?%s,?%s).%s", p.nodes[o.EdgeFrom].Var, p.nodes[o.EdgeTo].Var, o.Attr)
	case o.isParam():
		return "$" + o.ParamName
	default:
		return "'" + o.Const + "'"
	}
}

func (pr Predicate) render(p *Pattern) string {
	return pr.L.render(p) + pr.Op.String() + pr.R.render(p)
}

// value resolves the operand against a match; ok is false when the
// referenced attribute or edge is absent (the predicate then fails).
func (o Operand) value(g *graph.Graph, m Match) (string, bool) {
	switch {
	case o.isParam():
		// Unbound parameter slots never match; executions must substitute
		// them via BindParams first.
		return "", false
	case o.Node >= 0:
		attr := o.Attr
		if strings.EqualFold(attr, graph.LabelAttr) {
			attr = graph.LabelAttr
		}
		return g.NodeAttr(m[o.Node], attr)
	case o.EdgeFrom >= 0:
		e := g.FindEdge(m[o.EdgeFrom], m[o.EdgeTo])
		if e < 0 {
			e = g.FindEdge(m[o.EdgeTo], m[o.EdgeFrom])
		}
		if e < 0 {
			return "", false
		}
		return g.EdgeAttr(e, o.Attr)
	default:
		return o.Const, true
	}
}

// Eval evaluates the predicate on match m in g. Comparisons are numeric
// when both sides parse as numbers, string otherwise. Missing attributes
// make the predicate false.
func (pr Predicate) Eval(g *graph.Graph, m Match) bool {
	lv, lok := pr.L.value(g, m)
	rv, rok := pr.R.value(g, m)
	if !lok || !rok {
		return false
	}
	return Compare(pr.Op, lv, rv)
}

// Compare applies op to two attribute values with numeric coercion.
func Compare(op CmpOp, l, r string) bool {
	if lf, okL := parseNumber(l); okL {
		if rf, okR := parseNumber(r); okR {
			switch op {
			case OpEq:
				return lf == rf
			case OpNe:
				return lf != rf
			case OpLt:
				return lf < rf
			case OpLe:
				return lf <= rf
			case OpGt:
				return lf > rf
			case OpGe:
				return lf >= rf
			}
		}
	}
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

// parseNumber is strconv.ParseFloat(s, 64) without the allocation of a
// failed parse: ParseFloat rejects any string whose first byte is not a
// digit, sign, '.', or the start of "inf"/"infinity"/"nan", so those are
// refused before it is called. Attribute values such as "b7" then cost
// nothing per comparison.
func parseNumber(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	if c := s[0]; (c < '0' || c > '9') && strings.IndexByte("+-.iInN", c) < 0 {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// EvalAll reports whether every pattern predicate holds on m, and that
// every negated pattern edge is absent from g under m. This is the "final
// filtering step" of the paper's footnote 1.
func (p *Pattern) EvalAll(g *graph.Graph, m Match) bool {
	for _, e := range p.edges {
		if !e.Negated {
			continue
		}
		if e.Directed {
			if g.FindEdge(m[e.From], m[e.To]) >= 0 {
				return false
			}
		} else {
			if g.FindEdge(m[e.From], m[e.To]) >= 0 || g.FindEdge(m[e.To], m[e.From]) >= 0 {
				return false
			}
		}
	}
	for _, pr := range p.preds {
		if !pr.Eval(g, m) {
			return false
		}
	}
	return true
}
