package graph

// WAL is the durability hook a ShardedWriter calls before publishing a
// batch (storage.Log implements it with fsynced append-only segments). A
// publish whose WAL append fails is aborted — the ops stay pending and no
// new snapshot appears — so every published epoch is recoverable by
// replay.
type WAL interface {
	// AppendShardBatch makes one epoch durable as per-shard parts, one for
	// each shard with ops; with one shard that is a single part holding the
	// whole batch with identity indexes. totalOps is the whole batch's op
	// count (recorded in every segment so replay can detect a torn
	// multi-segment append). An append that fails on any part must restore
	// every segment to its prior record boundary before returning, so the
	// whole epoch can be retried; the error should implement ShardFault to
	// confine degraded mode to the failing shard.
	AppendShardBatch(parts []ShardBatch, totalOps int) error
}

// WriterStats is a point-in-time view of the writer for monitoring
// (egosh's \snapshot command).
type WriterStats struct {
	// Epoch is the current published version.
	Epoch uint64
	// Nodes and Edges are the staged counts, including unpublished ops.
	Nodes, Edges int
	// PendingOps is the buffered batch size.
	PendingOps int
	// OpsPublished is the lifetime total of published ops.
	OpsPublished int64
	// OverlayRows is the current snapshot's CSR delta-overlay size;
	// CSRBuilt reports whether that snapshot has a CSR view at all.
	OverlayRows int
	CSRBuilt    bool
	// Compactions counts completed background CSR compactions.
	Compactions int64
	// Degraded reports read-only degraded mode on any shard (see
	// ShardedWriter.Degraded).
	Degraded bool
}

// applyBatch produces the next frozen graph version from base and a
// mutation batch, sharing storage copy-on-write:
//
//   - The per-node slice headers are copied (so header cells are owned);
//     the per-node []Half rows stay shared until the batch's first append
//     to that row. In-place appends into a shared row's spare capacity are
//     safe: cells beyond a published version's length are invisible to it,
//     and the single-writer discipline makes append chains linear.
//   - The edge table, label column, attribute columns, and label
//     dictionary are shared outright and copied lazily on the batch's
//     first in-place overwrite (SetLabel on a pre-existing node, attribute
//     writes, new label interning).
//   - The CSR view is extended with overlay rows for the touched nodes
//     instead of being rebuilt (extendCSR).
//
// base must be frozen; the returned graph is frozen and epoch-stamped.
func applyBatch(base *Graph, ops []Op, epoch uint64) *Graph {
	baseNodes := len(base.out)
	baseEdges := len(base.edgs)
	adds := 0
	for _, op := range ops {
		if op.Kind == OpAddNode {
			adds++
		}
	}

	c := &Graph{
		directed:  base.directed,
		epoch:     epoch,
		labelDict: base.labelDict,
		edgs:      base.edgs,
		labels:    base.labels,
		nodeAttrs: base.nodeAttrs,
		edgeAttrs: base.edgeAttrs,
	}
	c.out = make([][]Half, baseNodes, baseNodes+adds)
	copy(c.out, base.out)
	if base.directed {
		c.in = make([][]Half, baseNodes, baseNodes+adds)
		copy(c.in, base.in)
	}

	var (
		ownLabels, ownDict           bool
		ownNodeAttrs, ownEdgeAttrs   bool
		ownedNodeMaps, ownedEdgeMaps map[int32]bool
		dirty                        = make(map[NodeID]struct{}, 2*len(ops))
	)

	setLabel := func(n int32, name string) {
		if int(n) < baseNodes && !ownLabels {
			c.labels = append([]LabelID(nil), c.labels...)
			ownLabels = true
		}
		if !ownDict {
			if _, ok := c.labelDict.Lookup(name); !ok {
				c.labelDict = c.labelDict.Clone()
				ownDict = true
			}
		}
		c.labels[n] = c.labelDict.Intern(name)
	}

	for _, op := range ops {
		switch op.Kind {
		case OpAddNode:
			c.out = append(c.out, nil)
			if c.directed {
				c.in = append(c.in, nil)
			}
			c.labels = append(c.labels, NoLabel)
			c.nodeAttrs = append(c.nodeAttrs, nil)
		case OpAddEdge:
			from, to := NodeID(op.A), NodeID(op.B)
			id := EdgeID(len(c.edgs))
			c.edgs = append(c.edgs, Edge{From: from, To: to})
			c.edgeAttrs = append(c.edgeAttrs, nil)
			c.out[from] = append(c.out[from], Half{To: to, Edge: id})
			if c.directed {
				c.in[to] = append(c.in[to], Half{To: from, Edge: id})
			} else if from != to {
				c.out[to] = append(c.out[to], Half{To: from, Edge: id})
			}
			dirty[from] = struct{}{}
			dirty[to] = struct{}{}
		case OpSetLabel:
			setLabel(op.A, op.Val)
		case OpSetNodeAttr:
			if op.Key == LabelAttr {
				setLabel(op.A, op.Val)
				continue
			}
			if int(op.A) < baseNodes && !ownNodeAttrs {
				c.nodeAttrs = append([]map[string]string(nil), c.nodeAttrs...)
				ownNodeAttrs = true
			}
			if ownedNodeMaps == nil {
				ownedNodeMaps = map[int32]bool{}
			}
			c.nodeAttrs[op.A] = cowSet(c.nodeAttrs[op.A], ownedNodeMaps, op.A, op.Key, op.Val)
		case OpSetEdgeAttr:
			if int(op.A) < baseEdges && !ownEdgeAttrs {
				c.edgeAttrs = append([]map[string]string(nil), c.edgeAttrs...)
				ownEdgeAttrs = true
			}
			if ownedEdgeMaps == nil {
				ownedEdgeMaps = map[int32]bool{}
			}
			c.edgeAttrs[op.A] = cowSet(c.edgeAttrs[op.A], ownedEdgeMaps, op.A, op.Key, op.Val)
		}
	}

	if bc := base.csr.Load(); bc != nil {
		c.csr.Store(extendCSR(bc, c, dirty))
	}
	c.frozen = true
	return c
}

// cowSet writes key=value into an attribute map owned by this batch,
// copying a map shared with earlier versions on first touch.
func cowSet(m map[string]string, owned map[int32]bool, id int32, key, value string) map[string]string {
	switch {
	case m == nil:
		m = make(map[string]string, 2)
		owned[id] = true
	case !owned[id]:
		cp := make(map[string]string, len(m)+1)
		for k, v := range m {
			cp[k] = v
		}
		m = cp
		owned[id] = true
	}
	m[key] = value
	return m
}
