package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// scriptOp is one step of a mutation script: a staged mutation or a
// publish.
type scriptOp struct {
	kind byte // 'n' node, 'e' edge, 'l' label, 'a' node attr, 'x' edge attr, 'p' publish
	a, b int
	k, v string
}

func randomScript(rng *rand.Rand, n int) []scriptOp {
	var script []scriptOp
	nodes, edges := 0, 0
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 3 || nodes < 2:
			script = append(script, scriptOp{kind: 'n'})
			nodes++
		case r < 6:
			script = append(script, scriptOp{kind: 'e', a: rng.Intn(nodes), b: rng.Intn(nodes)})
			edges++
		case r < 7:
			script = append(script, scriptOp{kind: 'l', a: rng.Intn(nodes), v: fmt.Sprintf("L%d", rng.Intn(4))})
		case r < 8:
			script = append(script, scriptOp{kind: 'a', a: rng.Intn(nodes), k: "k", v: fmt.Sprintf("v%d", i)})
		case r < 9 && edges > 0:
			script = append(script, scriptOp{kind: 'x', a: rng.Intn(edges), k: "w", v: fmt.Sprintf("%d", i)})
		default:
			script = append(script, scriptOp{kind: 'p'})
		}
	}
	return script
}

type mutator interface {
	AddNode() NodeID
	AddEdge(from, to NodeID) EdgeID
	SetLabel(n NodeID, label string)
	SetNodeAttr(n NodeID, key, value string)
	SetEdgeAttr(e EdgeID, key, value string)
	Publish() (*Snapshot, error)
	Snapshot() *Snapshot
}

func runScript(t *testing.T, m mutator, script []scriptOp) (nodeIDs []NodeID, edgeIDs []EdgeID, epochs []string) {
	t.Helper()
	for _, s := range script {
		switch s.kind {
		case 'n':
			nodeIDs = append(nodeIDs, m.AddNode())
		case 'e':
			edgeIDs = append(edgeIDs, m.AddEdge(nodeIDs[s.a], nodeIDs[s.b]))
		case 'l':
			m.SetLabel(nodeIDs[s.a], s.v)
		case 'a':
			m.SetNodeAttr(nodeIDs[s.a], s.k, s.v)
		case 'x':
			m.SetEdgeAttr(edgeIDs[s.a], s.k, s.v)
		case 'p':
			snap, err := m.Publish()
			if err != nil {
				t.Fatalf("publish: %v", err)
			}
			epochs = append(epochs, fmt.Sprintf("epoch %d\n%s", snap.Epoch(), graphFingerprint(snap.Graph())))
		}
	}
	snap, err := m.Publish()
	if err != nil {
		t.Fatalf("final publish: %v", err)
	}
	epochs = append(epochs, fmt.Sprintf("epoch %d\n%s", snap.Epoch(), graphFingerprint(snap.Graph())))
	return nodeIDs, edgeIDs, epochs
}

// scriptReference derives, without any writer, what running script must
// produce: the dense IDs staging assigns, the op batch of every epoch
// (a publish with nothing staged installs no epoch), and the fingerprint
// each publish returns — a replay of the batches so far onto a fresh
// mutable graph.
func scriptReference(t *testing.T, directed bool, script []scriptOp) (nodeIDs []NodeID, edgeIDs []EdgeID, batches []Delta, epochs []string) {
	t.Helper()
	var pending []Op
	publish := func() {
		if len(pending) > 0 {
			batches = append(batches, Delta{Epoch: uint64(len(batches) + 1), Ops: pending})
			pending = nil
		}
		epochs = append(epochs, fmt.Sprintf("epoch %d\n%s", len(batches), graphFingerprint(replayOps(t, directed, batches))))
	}
	for _, s := range script {
		switch s.kind {
		case 'n':
			nodeIDs = append(nodeIDs, NodeID(len(nodeIDs)))
			pending = append(pending, Op{Kind: OpAddNode})
		case 'e':
			edgeIDs = append(edgeIDs, EdgeID(len(edgeIDs)))
			pending = append(pending, Op{Kind: OpAddEdge, A: int32(nodeIDs[s.a]), B: int32(nodeIDs[s.b])})
		case 'l':
			pending = append(pending, Op{Kind: OpSetLabel, A: int32(nodeIDs[s.a]), Val: s.v})
		case 'a':
			pending = append(pending, Op{Kind: OpSetNodeAttr, A: int32(nodeIDs[s.a]), Key: s.k, Val: s.v})
		case 'x':
			pending = append(pending, Op{Kind: OpSetEdgeAttr, A: int32(edgeIDs[s.a]), Key: s.k, Val: s.v})
		case 'p':
			publish()
		}
	}
	publish()
	return nodeIDs, edgeIDs, batches, epochs
}

// batchOps flattens deltas to their op batches.
func batchOps(deltas []Delta) [][]Op {
	out := make([][]Op, len(deltas))
	for i, d := range deltas {
		out[i] = d.Ops
	}
	return out
}

// TestShardedWriterParity holds ShardedWriter to the script's reference
// behavior — same assigned IDs, same epochs, same per-epoch fingerprints
// as a replay of the script's own op sequence — for the single-shard path
// and for P=4.
func TestShardedWriterParity(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("directed=%v/shards=%d", directed, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				script := randomScript(rng, 400)
				wn, we, _, weps := scriptReference(t, directed, script)
				sw := NewShardedWriter(New(directed), shards)
				sn, se, seps := runScript(t, sw, script)
				if !reflect.DeepEqual(wn, sn) || !reflect.DeepEqual(we, se) {
					t.Fatalf("assigned IDs diverge")
				}
				if !reflect.DeepEqual(weps, seps) {
					t.Fatalf("epoch fingerprints diverge:\nreference:\n%s\nsharded:\n%s", weps[len(weps)-1], seps[len(seps)-1])
				}
			})
		}
	}
}

// TestShardedWriterWALOrdering checks a 1-shard writer hands the WAL one
// part per epoch holding exactly the script's op sequence with identity
// indexes, and that per-shard parts reassemble to that sequence via their
// batch indexes.
func TestShardedWriterWALOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	script := randomScript(rng, 300)
	_, _, ref, _ := scriptReference(t, false, script)
	flatW := batchOps(ref)

	var flatS [][]Op
	sw := NewShardedWriter(New(false), 1)
	sw.SetWAL(&shardWALRecorder{onParts: func(parts []ShardBatch) {
		if len(parts) != 1 || parts[0].Shard != 0 {
			t.Fatalf("P=1 append split into %d parts", len(parts))
		}
		for i, idx := range parts[0].Index {
			if idx != uint32(i) {
				t.Fatalf("P=1 batch index %d at position %d", idx, i)
			}
		}
		flatS = append(flatS, append([]Op(nil), parts[0].Ops...))
	}})
	runScript(t, sw, script)
	if !reflect.DeepEqual(flatW, flatS) {
		t.Fatalf("P=1 WAL batches diverge from the script's op sequence")
	}

	// P=4: reassembling each epoch's segment records by
	// batch index must reproduce the same flat op sequence.
	var epochs [][]Op
	sw4 := NewShardedWriter(New(false), 4)
	sw4.SetWAL(&shardWALRecorder{onEpoch: func(ops []Op) { epochs = append(epochs, ops) }})
	runScript(t, sw4, script)
	if !reflect.DeepEqual(flatW, epochs) {
		t.Fatalf("P=4 reassembled WAL batches diverge from the script's op sequence")
	}
}

// shardWALRecorder implements WAL, reassembling each epoch's parts.
type shardWALRecorder struct {
	onParts func([]ShardBatch)
	onEpoch func([]Op)
	fail    map[int]error
}

func (r *shardWALRecorder) AppendShardBatch(parts []ShardBatch, totalOps int) error {
	for _, p := range parts {
		if err := r.fail[p.Shard]; err != nil {
			return &segmentFault{shard: p.Shard, err: err}
		}
	}
	if r.onParts != nil {
		r.onParts(parts)
	}
	ops := make([]Op, totalOps)
	seen := 0
	for _, p := range parts {
		for i, op := range p.Ops {
			ops[p.Index[i]] = op
			seen++
		}
	}
	if seen != totalOps {
		return fmt.Errorf("short batch: %d of %d ops", seen, totalOps)
	}
	if r.onEpoch != nil {
		r.onEpoch(ops)
	}
	return nil
}

type segmentFault struct {
	shard int
	err   error
}

func (f *segmentFault) Error() string    { return fmt.Sprintf("shard %d: %v", f.shard, f.err) }
func (f *segmentFault) Unwrap() error    { return f.err }
func (f *segmentFault) FailedShard() int { return f.shard }

// TestShardedWriterConcurrentIngest stages from several goroutines while
// another publishes continuously; the final graph must contain every
// staged object under the IDs staging returned. Run under -race.
func TestShardedWriterConcurrentIngest(t *testing.T) {
	sw := NewShardedWriter(New(false), 4)
	const workers, perWorker = 4, 200
	type star struct {
		center NodeID
		leaves []NodeID
		edges  []EdgeID
	}
	stars := make([][]star, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	stop := make(chan struct{})
	var pubErr error
	var pubWg sync.WaitGroup
	pubWg.Add(1)
	go func() {
		defer pubWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := sw.Publish(); err != nil && pubErr == nil {
					pubErr = err
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := star{center: sw.AddNode()}
				for l := 0; l < 3; l++ {
					leaf := sw.AddNode()
					s.leaves = append(s.leaves, leaf)
					s.edges = append(s.edges, sw.AddEdge(s.center, leaf))
				}
				sw.SetLabel(s.center, "C")
				stars[w] = append(stars[w], s)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pubWg.Wait()
	if pubErr != nil {
		t.Fatalf("publisher: %v", pubErr)
	}
	snap, err := sw.Publish()
	if err != nil {
		t.Fatalf("final publish: %v", err)
	}
	g := snap.Graph()
	if got, want := g.NumNodes(), workers*perWorker*4; got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), workers*perWorker*3; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	for w := range stars {
		for _, s := range stars[w] {
			if g.LabelString(s.center) != "C" {
				t.Fatalf("node %d lost its label", s.center)
			}
			for i, e := range s.edges {
				ed := g.Edge(e)
				if ed.From != s.center || ed.To != s.leaves[i] {
					t.Fatalf("edge %d = %d->%d, want %d->%d", e, ed.From, ed.To, s.center, s.leaves[i])
				}
			}
		}
	}
}

// TestShardedWriterDegradedShardIsolation drives one shard's segment into
// a permanent failure and checks (a) only that shard degrades, (b) later
// publishes route healthy shards' ops around it subject to dense-ID
// holds, and (c) clearing the fault catches up to the full graph.
func TestShardedWriterDegradedShardIsolation(t *testing.T) {
	const shards = 4
	rec := &shardWALRecorder{fail: map[int]error{}}
	sw := NewShardedWriter(New(false), shards)
	sw.SetWAL(rec)

	// Seed nodes across every shard, published while healthy.
	var nodes []NodeID
	for i := 0; i < 64; i++ {
		nodes = append(nodes, sw.AddNode())
	}
	if _, err := sw.Publish(); err != nil {
		t.Fatalf("seed publish: %v", err)
	}

	// Find a victim shard that owns at least one seeded node.
	part := sw.Partitioner()
	victim := part.Shard(nodes[0])
	rec.fail[victim] = errors.New("injected ENOSPC")

	// Stage attrs on every node: victim-shard ops will stick, others
	// publish after the first (failing) attempt.
	for _, n := range nodes {
		sw.SetNodeAttr(n, "touched", "yes")
	}
	if _, err := sw.Publish(); err == nil {
		t.Fatal("publish with failing shard should error")
	}
	if got := sw.DegradedShards(); len(got) != 1 || got[0] != victim {
		t.Fatalf("DegradedShards = %v, want [%d]", got, victim)
	}

	snap, err := sw.Publish() // routes around the degraded lane
	if err != nil {
		t.Fatalf("routed publish: %v", err)
	}
	g := snap.Graph()
	for _, n := range nodes {
		want := part.Shard(n) != victim
		if got := g.NodeAttrs(n)["touched"] == "yes"; got != want {
			t.Fatalf("node %d (shard %d): touched=%v, want %v", n, part.Shard(n), got, want)
		}
	}

	// New creations: the first held creation (a node hashing to the
	// victim) gates every later creation, keeping IDs dense.
	var newNodes []NodeID
	for i := 0; i < 32; i++ {
		newNodes = append(newNodes, sw.AddNode())
	}
	firstHeld := -1
	for i, n := range newNodes {
		if part.Shard(n) == victim {
			firstHeld = i
			break
		}
	}
	snap, err = sw.Publish()
	if firstHeld == 0 {
		// Everything was held: the publish makes no progress and reports
		// the degraded shard instead.
		if err == nil {
			t.Fatal("fully held publish should surface the degraded error")
		}
		snap = sw.Snapshot()
	} else if err != nil {
		t.Fatalf("creation publish: %v", err)
	}
	wantNodes := len(nodes) + len(newNodes)
	if firstHeld >= 0 {
		wantNodes = len(nodes) + firstHeld
	}
	if got := snap.Graph().NumNodes(); got != wantNodes {
		t.Fatalf("published nodes = %d, want %d (first held creation at %d)", got, wantNodes, firstHeld)
	}

	// Recovery: clear the fault; everything held must publish, and the
	// result must match a from-scratch replay of the recorded WAL.
	delete(rec.fail, victim)
	if !sw.ClearDegraded() {
		t.Fatal("ClearDegraded reported no degraded shard")
	}
	snap, err = sw.Publish()
	if err != nil {
		t.Fatalf("recovery publish: %v", err)
	}
	g = snap.Graph()
	if got := g.NumNodes(); got != len(nodes)+len(newNodes) {
		t.Fatalf("recovered nodes = %d, want %d", got, len(nodes)+len(newNodes))
	}
	for _, n := range nodes {
		if g.NodeAttrs(n)["touched"] != "yes" {
			t.Fatalf("node %d attr lost after recovery", n)
		}
	}
	if sw.Pending() != 0 {
		t.Fatalf("pending = %d after recovery", sw.Pending())
	}
}

// TestRouteBatchWatermarks exercises the pure dense-ID routing rules.
func TestRouteBatchWatermarks(t *testing.T) {
	deg := make([]*DegradedError, 3)
	deg[1] = &DegradedError{}
	mk := func(lane int, kind OpKind, id, a, b int32) pubOp {
		return pubOp{seqOp: seqOp{id: id, op: Op{Kind: kind, A: a, B: b}}, lane: lane}
	}
	merged := []pubOp{
		mk(0, OpAddNode, 10, 0, 0),     // publishes
		mk(1, OpAddNode, 11, 0, 0),     // held: degraded lane → nodeWM=11
		mk(2, OpAddNode, 12, 0, 0),     // held: id >= nodeWM
		mk(0, OpAddEdge, 5, 10, 3),     // publishes (endpoints < 11)
		mk(2, OpAddEdge, 6, 11, 3),     // held: endpoint >= nodeWM → edgeWM=6
		mk(0, OpAddEdge, 7, 10, 10),    // held: id >= edgeWM
		mk(2, OpSetLabel, 0, 10, 0),    // publishes
		mk(2, OpSetLabel, 0, 12, 0),    // held: references held node
		mk(0, OpSetEdgeAttr, 0, 5, 0),  // publishes
		mk(0, OpSetEdgeAttr, 0, 6, 0),  // held: references held edge
		mk(1, OpSetNodeAttr, 0, 10, 0), // held: degraded lane
	}
	pub, held := routeBatch(merged, deg)
	if len(pub) != 4 || len(held) != 7 {
		t.Fatalf("pub=%d held=%d, want 4/7", len(pub), len(held))
	}
	for _, po := range pub {
		if po.lane == 1 {
			t.Fatal("degraded-lane op published")
		}
	}
	// Without degraded lanes everything publishes untouched.
	pub, held = routeBatch(merged, make([]*DegradedError, 3))
	if len(pub) != len(merged) || held != nil {
		t.Fatalf("healthy route: pub=%d held=%d", len(pub), len(held))
	}
}

// TestPartitionerDeterminism pins the hash: shard assignment is part of
// the on-disk contract and must never drift.
func TestPartitionerDeterminism(t *testing.T) {
	p := NewPartitioner(4)
	want := []int{3, 1, 2, 1, 2, 2, 0, 3}
	for i, w := range want {
		if got := p.Shard(NodeID(i)); got != w {
			t.Fatalf("Shard(%d) = %d, want %d (hash drifted — on-disk contract)", i, got, w)
		}
	}
	if NewPartitioner(1).Shard(12345) != 0 || (Partitioner{}).Shard(7) != 0 {
		t.Fatal("single-shard partitioner must map everything to 0")
	}
}
