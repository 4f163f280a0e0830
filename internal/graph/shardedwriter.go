package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ShardBatch is one shard's slice of a published epoch: the ops routed to
// that shard plus each op's position in the whole merged batch. The
// positions let replay reassemble the exact publish order from P
// independently written log segments.
type ShardBatch struct {
	// Shard is the partitioner shard (and log segment) these ops belong to.
	Shard int
	// Index[i] is Ops[i]'s position in the whole epoch's merged batch.
	Index []uint32
	// Ops are the shard's ops in batch order.
	Ops []Op
}

// ShardFault is implemented by WAL errors that identify the shard whose
// segment failed, so the writer degrades only that shard. Errors without
// it degrade every shard (the single-log case).
type ShardFault interface {
	FailedShard() int
}

// seqOp is one staged op with its global staging sequence number and, for
// creations, the dense ID it was assigned. Sequence numbers restore the
// global staging order when the per-shard lanes are merged at publish.
type seqOp struct {
	seq uint64
	id  int32 // assigned NodeID/EdgeID for OpAddNode/OpAddEdge; 0 otherwise
	op  Op
}

// pubOp is a merged, publish-ordered op with its originating lane.
type pubOp struct {
	seqOp
	lane int
}

// swLane is one shard's staging lane: its pending ops in sequence order
// and its sticky degraded state. Guarded by the writer's stage mutex.
type swLane struct {
	pending  []seqOp
	degraded *DegradedError
}

// ShardedWriter is the single mutation path of the MVCC graph core. It
// batches mutations (AddNode/AddEdge/SetLabel/Set*Attr assign IDs
// immediately but stay invisible to readers) into P per-shard lanes,
// routed by a deterministic Partitioner; P = 1 is the unsharded case.
// Publish installs the next epoch with a two-phase publish: phase one
// freezes every lane's tail into one sequence-ordered batch and makes it
// durable through the WAL (per-shard segment records in parallel for
// P > 1); phase two applies the batch copy-on-write in publish order
// and installs the composed snapshot with one atomic pointer store.
// Readers acquire versions with Snapshot(), an atomic pointer load, and
// are never blocked by the writer, nor the writer by readers; they can
// never observe mixed epochs, since there is only one published pointer.
//
// Copy-on-write granularity is the dirty tail: a publish copies the
// per-node slice headers (O(nodes) memcpy) plus only the adjacency rows,
// label column, and attribute maps the batch actually touched; everything
// else is shared structurally with the parent version. The CSR traversal
// view is extended with a delta overlay (csr.go) instead of rebuilt, and a
// background compaction folds the overlay flat once it outgrows
// CompactOverlayAt rows.
//
// Degraded mode is per shard: when one shard's segment append fails
// unrecoverably, only that lane turns sticky read-only. Later publishes
// route around it — ops staged to healthy shards still publish, except
// ops that would break dense ID assignment (creations at or after the
// first stuck creation, and ops referencing such IDs), which are held
// back until the stuck shard is cleared. With P = 1 the whole writer
// degrades.
//
// With P = 1 the WAL gets one part holding the whole batch in publish
// order, which storage.Log writes in the v1 one-segment format. At any P
// the batch applies sequentially (applyBatch).
//
// All methods are safe for concurrent use. Staging and publish take
// different locks, so ingest goroutines keep staging while a publish is
// fsyncing its segments.
type ShardedWriter struct {
	// CompactOverlayAt bounds the CSR delta overlay: after a publish
	// leaves more overlay rows than this, a background goroutine compacts
	// the snapshot's CSR to flat arrays. 0 picks a default of
	// max(256, nodes/8). Negative disables background compaction.
	CompactOverlayAt int

	// WALRetry bounds the retries of transient WAL-append failures
	// (degraded.go). Set before sharing the writer; the zero value picks
	// the defaults (4 attempts, 2ms..50ms exponential backoff + jitter).
	WALRetry RetryPolicy

	part Partitioner

	// stageMu guards the staging state: lanes, counters, and the sequence
	// clock. Held only for the few appends of one staged op — never across
	// a WAL fsync or batch application.
	stageMu     sync.Mutex
	lanes       []swLane
	seq         uint64
	stagedNodes int
	stagedEdges int

	// pubMu serializes Publish and Barrier; rng drives retry jitter.
	pubMu sync.Mutex
	cur   atomic.Pointer[Snapshot]
	rng   *rand.Rand

	wal     WAL
	history []Delta
	subs    []func(*Snapshot, Delta)

	opsPublished atomic.Int64
	compacting   atomic.Bool
	compactions  atomic.Int64
}

// NewShardedWriter freezes g as the epoch-0 snapshot of a graph sharded
// `shards` ways (1 for an unsharded graph) and returns its writer. The
// caller must not retain mutating access to g; all further mutation goes
// through the writer.
func NewShardedWriter(g *Graph, shards int) *ShardedWriter {
	return NewShardedWriterAt(g, 0, shards)
}

// NewShardedWriterAt is NewShardedWriter with an explicit starting epoch,
// used when the graph was recovered by replaying a mutation log: the
// writer resumes the log's epoch sequence so version numbers stay
// monotonic across restarts.
func NewShardedWriterAt(g *Graph, epoch uint64, shards int) *ShardedWriter {
	p := NewPartitioner(shards)
	w := &ShardedWriter{
		part:        p,
		lanes:       make([]swLane, p.Shards()),
		stagedNodes: g.NumNodes(),
		stagedEdges: g.NumEdges(),
	}
	w.cur.Store(FreezeAt(g, epoch))
	return w
}

// Partitioner returns the writer's node→shard map.
func (w *ShardedWriter) Partitioner() Partitioner { return w.part }

// Shards returns the shard count.
func (w *ShardedWriter) Shards() int { return w.part.Shards() }

// SetWAL attaches the durability hook: every subsequent Publish appends
// its batch before installing the snapshot, and the writer starts
// retaining published deltas for log compaction (Barrier). Each batch
// reaches the WAL split by shard (splitByLane). Attach before the first
// publish; batches published earlier are not re-appended.
func (w *ShardedWriter) SetWAL(wal WAL) {
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	w.wal = wal
}

// Snapshot returns the current published version: an O(1) atomic load.
// The composed snapshot covers every shard at one epoch.
func (w *ShardedWriter) Snapshot() *Snapshot { return w.cur.Load() }

// Subscribe registers fn to run synchronously after every publish, in
// registration order, with the new snapshot and the batch that produced
// it. fn runs under the writer's publish lock: it must not call back into
// the writer's publish path. The incremental census maintainer consumes
// deltas this way.
func (w *ShardedWriter) Subscribe(fn func(*Snapshot, Delta)) {
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	w.subs = append(w.subs, fn)
}

// Pending returns the number of buffered, unpublished ops across all
// lanes.
func (w *ShardedWriter) Pending() int {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	n := 0
	for i := range w.lanes {
		n += len(w.lanes[i].pending)
	}
	return n
}

// PendingShard returns one shard's buffered op count.
func (w *ShardedWriter) PendingShard(shard int) int {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	if shard < 0 || shard >= len(w.lanes) {
		return 0
	}
	return len(w.lanes[shard].pending)
}

// stage appends one allocated op to its lane. Caller holds stageMu.
func (w *ShardedWriter) stage(lane int, id int32, op Op) {
	s := w.seq
	w.seq++
	w.lanes[lane].pending = append(w.lanes[lane].pending, seqOp{seq: s, id: id, op: op})
}

// AddNode stages a node append and returns the ID it will have once
// published. The node's shard is Partitioner.Shard of that ID.
func (w *ShardedWriter) AddNode() NodeID {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	id := NodeID(w.stagedNodes)
	w.stagedNodes++
	w.stage(w.part.Shard(id), int32(id), Op{Kind: OpAddNode})
	return id
}

// AddNodes stages n node appends and returns the first staged ID.
func (w *ShardedWriter) AddNodes(n int) NodeID {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	first := NodeID(w.stagedNodes)
	for i := 0; i < n; i++ {
		id := NodeID(w.stagedNodes)
		w.stagedNodes++
		w.stage(w.part.Shard(id), int32(id), Op{Kind: OpAddNode})
	}
	return first
}

// AddEdge stages an edge append and returns its future EdgeID. The op is
// routed to the source endpoint's shard.
func (w *ShardedWriter) AddEdge(from, to NodeID) EdgeID {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	w.mustStagedNode(from)
	w.mustStagedNode(to)
	id := EdgeID(w.stagedEdges)
	w.stagedEdges++
	w.stage(w.part.Shard(from), int32(id), Op{Kind: OpAddEdge, A: int32(from), B: int32(to)})
	return id
}

// SetLabel stages a label assignment, routed to n's shard.
func (w *ShardedWriter) SetLabel(n NodeID, label string) {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	w.mustStagedNode(n)
	w.stage(w.part.Shard(n), 0, Op{Kind: OpSetLabel, A: int32(n), Val: label})
}

// SetNodeAttr stages a node attribute assignment; the reserved "label"
// key routes to SetLabel, mirroring Graph.SetNodeAttr.
func (w *ShardedWriter) SetNodeAttr(n NodeID, key, value string) {
	if key == LabelAttr {
		w.SetLabel(n, value)
		return
	}
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	w.mustStagedNode(n)
	w.stage(w.part.Shard(n), 0, Op{Kind: OpSetNodeAttr, A: int32(n), Key: key, Val: value})
}

// SetEdgeAttr stages an edge attribute assignment, routed by
// Partitioner.ShardEdge.
func (w *ShardedWriter) SetEdgeAttr(e EdgeID, key, value string) {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	if e < 0 || int(e) >= w.stagedEdges {
		panic(fmt.Sprintf("graph: edge %d out of staged range [0,%d)", e, w.stagedEdges))
	}
	w.stage(w.part.ShardEdge(e), 0, Op{Kind: OpSetEdgeAttr, A: int32(e), Key: key, Val: value})
}

func (w *ShardedWriter) mustStagedNode(n NodeID) {
	if n < 0 || int(n) >= w.stagedNodes {
		panic(fmt.Sprintf("graph: node %d out of staged range [0,%d)", n, w.stagedNodes))
	}
}

// freeze cuts every lane's pending tail under the stage lock, returning
// the merged batch in global staging order plus the current degraded set.
// Staging resumes immediately; the frozen ops are owned by the publish.
func (w *ShardedWriter) freeze() (merged []pubOp, degraded []*DegradedError) {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	total := 0
	for i := range w.lanes {
		total += len(w.lanes[i].pending)
	}
	degraded = make([]*DegradedError, len(w.lanes))
	parts := make([][]seqOp, len(w.lanes))
	for i := range w.lanes {
		parts[i] = w.lanes[i].pending
		w.lanes[i].pending = nil
		degraded[i] = w.lanes[i].degraded
	}
	if total == 0 {
		return nil, degraded
	}
	// K-way merge by sequence number; each lane is already in sequence
	// order (staging appends under one clock, requeue prepends older ops).
	merged = make([]pubOp, 0, total)
	heads := make([]int, len(parts))
	for len(merged) < total {
		best, bestSeq := -1, uint64(0)
		for i, p := range parts {
			if heads[i] >= len(p) {
				continue
			}
			if s := p[heads[i]].seq; best < 0 || s < bestSeq {
				best, bestSeq = i, s
			}
		}
		merged = append(merged, pubOp{seqOp: parts[best][heads[best]], lane: best})
		heads[best]++
	}
	return merged, degraded
}

// requeue returns unpublished ops to the front of their lanes, preserving
// sequence order ahead of anything staged since the freeze.
func (w *ShardedWriter) requeue(ops []pubOp) {
	if len(ops) == 0 {
		return
	}
	perLane := make([][]seqOp, len(w.lanes))
	for _, po := range ops {
		perLane[po.lane] = append(perLane[po.lane], po.seqOp)
	}
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	for i, back := range perLane {
		if len(back) == 0 {
			continue
		}
		w.lanes[i].pending = append(back, w.lanes[i].pending...)
	}
}

// routeBatch splits a merged batch into the publishable prefix-by-density
// and the held remainder. With no degraded lanes everything publishes.
// Ops in degraded lanes are held; so is any op that would break dense ID
// assignment if published without them: creations at or after the first
// held creation of their kind, and references to IDs those would assign.
func routeBatch(merged []pubOp, degraded []*DegradedError) (pub, held []pubOp) {
	any := false
	for _, d := range degraded {
		if d != nil {
			any = true
			break
		}
	}
	if !any {
		return merged, nil
	}
	const noWM = int32(1<<31 - 1)
	nodeWM, edgeWM := noWM, noWM
	pub = make([]pubOp, 0, len(merged))
	for _, po := range merged {
		bad := degraded[po.lane] != nil
		switch po.op.Kind {
		case OpAddNode:
			bad = bad || po.id >= nodeWM
			if bad && po.id < nodeWM {
				nodeWM = po.id
			}
		case OpAddEdge:
			bad = bad || po.id >= edgeWM || po.op.A >= nodeWM || po.op.B >= nodeWM
			if bad && po.id < edgeWM {
				edgeWM = po.id
			}
		case OpSetLabel, OpSetNodeAttr:
			bad = bad || po.op.A >= nodeWM
		case OpSetEdgeAttr:
			bad = bad || po.op.A >= edgeWM
		}
		if bad {
			held = append(held, po)
		} else {
			pub = append(pub, po)
		}
	}
	return pub, held
}

// firstDegraded returns the lowest-shard degraded error in the set.
func firstDegraded(degraded []*DegradedError) *DegradedError {
	for _, d := range degraded {
		if d != nil {
			return d
		}
	}
	return nil
}

// Publish makes the frozen batch durable across the shard segments,
// applies it in publish order, and atomically installs the next
// composed snapshot. With nothing pending it returns the current snapshot
// unchanged.
//
// Per-shard degraded semantics: an unrecoverable segment-append failure
// flips only the failing shard's lane into sticky read-only mode (the
// whole writer when the failure does not identify a shard). The failing
// publish aborts with a *DegradedError and every op stays pending; later
// publishes route around degraded lanes, publishing what dense ID
// assignment allows and holding the rest until ClearDegraded. A publish
// that makes progress returns the new snapshot and a nil error even while
// some shards are stuck — poll Degraded/DegradedShards for health.
func (w *ShardedWriter) Publish() (*Snapshot, error) {
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	base := w.cur.Load()
	merged, degraded := w.freeze()
	if len(merged) == 0 {
		if d := firstDegraded(degraded); d != nil {
			return base, d
		}
		return base, nil
	}
	pub, held := routeBatch(merged, degraded)
	if len(pub) == 0 {
		w.requeue(merged)
		return base, firstDegraded(degraded)
	}
	if w.wal != nil {
		if err := w.appendWAL(pub); err != nil {
			w.requeue(merged)
			w.setDegraded(err, base.epoch)
			return base, w.Degraded()
		}
	}
	ops := make([]Op, len(pub))
	for i, po := range pub {
		ops[i] = po.op
	}
	next := applyBatch(base.g, ops, base.epoch+1)
	snap := &Snapshot{epoch: base.epoch + 1, g: next}
	delta := Delta{Epoch: snap.epoch, Ops: ops}
	w.cur.Store(snap)
	w.opsPublished.Add(int64(len(ops)))
	if w.wal != nil {
		w.history = append(w.history, delta)
	}
	for _, fn := range w.subs {
		fn(snap, delta)
	}
	w.maybeCompact(next)
	w.requeue(held)
	return snap, nil
}

// appendWAL drives one batch through the WAL under the retry policy.
// Called with pubMu held.
func (w *ShardedWriter) appendWAL(pub []pubOp) error {
	parts := w.splitByLane(pub)
	policy := w.WALRetry
	for attempt := 1; ; attempt++ {
		err := w.wal.AppendShardBatch(parts, len(pub))
		if err == nil {
			return nil
		}
		if !IsTransient(err) || attempt >= policy.attempts() {
			return err
		}
		if w.rng == nil {
			w.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		if d := policy.backoff(attempt, w.rng); d > 0 {
			time.Sleep(d)
		}
	}
}

// splitByLane cuts a publish-ordered batch into one ShardBatch per lane
// with ops, each op tagged with its batch position; with one lane that is
// the whole batch with identity indexes.
func (w *ShardedWriter) splitByLane(pub []pubOp) []ShardBatch {
	slot := make([]int, len(w.lanes)) // per lane: op count, then part index
	for _, po := range pub {
		slot[po.lane]++
	}
	var parts []ShardBatch
	for lane, n := range slot {
		if n > 0 {
			slot[lane] = len(parts)
			parts = append(parts, ShardBatch{Shard: lane, Index: make([]uint32, 0, n), Ops: make([]Op, 0, n)})
		}
	}
	for i, po := range pub {
		b := &parts[slot[po.lane]]
		b.Index = append(b.Index, uint32(i))
		b.Ops = append(b.Ops, po.op)
	}
	return parts
}

// setDegraded marks the failing shard's lane (or every lane when the
// error does not identify one) sticky read-only.
func (w *ShardedWriter) setDegraded(cause error, epoch uint64) {
	shard := -1
	var sf ShardFault
	if errors.As(cause, &sf) {
		shard = sf.FailedShard()
	}
	d := &DegradedError{Cause: cause, Epoch: epoch, Since: time.Now()}
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	if shard >= 0 && shard < len(w.lanes) {
		w.lanes[shard].degraded = d
		return
	}
	for i := range w.lanes {
		w.lanes[i].degraded = d
	}
}

// Degraded returns the writer's degraded state: nil while every shard is
// healthy, the lowest degraded shard's *DegradedError otherwise. With
// P > 1 a non-nil result means at most that shard's writes are stuck;
// healthy shards keep publishing.
func (w *ShardedWriter) Degraded() error {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	for i := range w.lanes {
		if d := w.lanes[i].degraded; d != nil {
			return d
		}
	}
	return nil
}

// DegradedShards lists the currently degraded shards (nil when healthy).
func (w *ShardedWriter) DegradedShards() []int {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	var out []int
	for i := range w.lanes {
		if w.lanes[i].degraded != nil {
			out = append(out, i)
		}
	}
	return out
}

// ClearDegraded re-arms every degraded shard after the underlying storage
// fault is resolved. Held ops were retained in sequence order, so the
// next Publish retries them. It reports whether any shard was degraded.
func (w *ShardedWriter) ClearDegraded() bool {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	was := false
	for i := range w.lanes {
		if w.lanes[i].degraded != nil {
			was = true
			w.lanes[i].degraded = nil
		}
	}
	return was
}

// maybeCompact kicks off a background CSR compaction when the new
// snapshot's delta overlay outgrew its bound. At most one compaction runs
// at a time; a snapshot published mid-compaction is picked up by the next
// publish's check.
func (w *ShardedWriter) maybeCompact(g *Graph) {
	if w.CompactOverlayAt < 0 {
		return
	}
	rows, built := g.CSRInfo()
	if !built {
		return
	}
	limit := w.CompactOverlayAt
	if limit == 0 {
		limit = g.NumNodes() / 8
		if limit < 256 {
			limit = 256
		}
	}
	if rows <= limit || !w.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		g.CompactCSR()
		w.compactions.Add(1)
		w.compacting.Store(false)
	}()
}

// Barrier runs fn under the publish lock — no publish can interleave —
// with the current snapshot and the retained deltas newer than epoch
// `since` (oldest first). If fn returns a non-nil WAL it replaces the
// writer's hook and the retained history is trimmed to the tail fn saw:
// this is the log-compaction handshake (storage.DynamicStore saves the
// base image at an epoch, then swaps in a fresh log seeded with the tail).
func (w *ShardedWriter) Barrier(since uint64, fn func(cur *Snapshot, tail []Delta) (WAL, error)) error {
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	var tail []Delta
	for _, d := range w.history {
		if d.Epoch > since {
			tail = append(tail, d)
		}
	}
	nw, err := fn(w.cur.Load(), tail)
	if err != nil {
		return err
	}
	if nw != nil {
		w.wal = nw
		w.history = tail
	}
	return nil
}

// ShardStat is one shard's point-in-time staging state.
type ShardStat struct {
	// Shard is the partitioner shard index.
	Shard int
	// PendingOps is the lane's buffered op count (including held ops).
	PendingOps int
	// Degraded reports the lane's sticky read-only state.
	Degraded bool
}

// ShardStats snapshots every lane's staging state for monitoring.
func (w *ShardedWriter) ShardStats() []ShardStat {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	out := make([]ShardStat, len(w.lanes))
	for i := range w.lanes {
		out[i] = ShardStat{
			Shard:      i,
			PendingOps: len(w.lanes[i].pending),
			Degraded:   w.lanes[i].degraded != nil,
		}
	}
	return out
}

// Stats snapshots the writer's monitoring counters.
func (w *ShardedWriter) Stats() WriterStats {
	w.stageMu.Lock()
	pending := 0
	deg := false
	for i := range w.lanes {
		pending += len(w.lanes[i].pending)
		deg = deg || w.lanes[i].degraded != nil
	}
	nodes, edges := w.stagedNodes, w.stagedEdges
	w.stageMu.Unlock()
	snap := w.cur.Load()
	rows, built := snap.g.CSRInfo()
	return WriterStats{
		Epoch:        snap.epoch,
		Nodes:        nodes,
		Edges:        edges,
		PendingOps:   pending,
		OpsPublished: w.opsPublished.Load(),
		OverlayRows:  rows,
		CSRBuilt:     built,
		Compactions:  w.compactions.Load(),
		Degraded:     deg,
	}
}
