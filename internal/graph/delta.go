package graph

import "fmt"

// OpKind identifies one mutation kind in a ShardedWriter batch.
type OpKind uint8

// The mutation kinds a ShardedWriter batches and a mutation log persists.
const (
	// OpAddNode appends one node (its ID is implied by position: the
	// graph's node count when the op applies).
	OpAddNode OpKind = iota + 1
	// OpAddEdge appends the edge A->B (A-B undirected).
	OpAddEdge
	// OpSetLabel sets node A's label to Val.
	OpSetLabel
	// OpSetNodeAttr sets node A's attribute Key to Val.
	OpSetNodeAttr
	// OpSetEdgeAttr sets edge A's attribute Key to Val.
	OpSetEdgeAttr
)

// Op is one buffered mutation. Ops are replayable: applying a batch to the
// graph version it was created against reproduces the published version
// exactly, which is what the mutation log's replay-on-open relies on.
type Op struct {
	Kind OpKind
	// A is the target node (OpAddEdge: source; OpSetEdgeAttr: edge ID).
	A int32
	// B is the edge target for OpAddEdge.
	B int32
	// Key is the attribute key for the Set*Attr ops.
	Key string
	// Val is the label or attribute value.
	Val string
}

// Delta is one published mutation batch: the ops applied between epoch-1
// and epoch. Subscribers (incremental census maintenance) and the mutation
// log both consume deltas.
type Delta struct {
	// Epoch is the version whose snapshot first contains this batch.
	Epoch uint64
	// Ops are the batch's mutations in application order.
	Ops []Op
}

// ApplyOp applies one op to a mutable graph (mutation-log replay). The op
// must be well formed for the graph's current shape; a malformed op
// returns an error without partial effects.
func ApplyOp(g *Graph, op Op) error {
	switch op.Kind {
	case OpAddNode:
		g.AddNode()
	case OpAddEdge:
		if err := checkNode(g, op.A); err != nil {
			return err
		}
		if err := checkNode(g, op.B); err != nil {
			return err
		}
		g.AddEdge(NodeID(op.A), NodeID(op.B))
	case OpSetLabel:
		if err := checkNode(g, op.A); err != nil {
			return err
		}
		g.SetLabel(NodeID(op.A), op.Val)
	case OpSetNodeAttr:
		if err := checkNode(g, op.A); err != nil {
			return err
		}
		g.SetNodeAttr(NodeID(op.A), op.Key, op.Val)
	case OpSetEdgeAttr:
		if op.A < 0 || int(op.A) >= g.NumEdges() {
			return fmt.Errorf("graph: op references edge %d out of range [0,%d)", op.A, g.NumEdges())
		}
		g.SetEdgeAttr(EdgeID(op.A), op.Key, op.Val)
	default:
		return fmt.Errorf("graph: unknown op kind %d", op.Kind)
	}
	return nil
}

func checkNode(g *Graph, n int32) error {
	if n < 0 || int(n) >= g.NumNodes() {
		return fmt.Errorf("graph: op references node %d out of range [0,%d)", n, g.NumNodes())
	}
	return nil
}
