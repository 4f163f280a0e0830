package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// graphFingerprint captures everything a census reader can observe about a
// graph version, via public read methods only, in a canonical form.
func graphFingerprint(g *Graph) string {
	var b []byte
	b = append(b, fmt.Sprintf("directed=%v n=%d m=%d\n", g.Directed(), g.NumNodes(), g.NumEdges())...)
	for n := 0; n < g.NumNodes(); n++ {
		id := NodeID(n)
		out := append([]NodeID(nil), g.OutNeighbors(id)...)
		in := append([]NodeID(nil), g.InNeighbors(id)...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
		b = append(b, fmt.Sprintf("node %d label=%q out=%v in=%v attrs=%v\n",
			n, g.LabelString(id), out, in, sortedAttrs(g.NodeAttrs(id)))...)
	}
	for e := 0; e < g.NumEdges(); e++ {
		id := EdgeID(e)
		ed := g.Edge(id)
		b = append(b, fmt.Sprintf("edge %d %d->%d attrs=%v\n", e, ed.From, ed.To, sortedAttrs(g.EdgeAttrMap(id)))...)
	}
	return string(b)
}

func sortedAttrs(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return out
}

// replayOps applies a flat op sequence to a fresh mutable graph.
func replayOps(t *testing.T, directed bool, deltas []Delta) *Graph {
	t.Helper()
	g := New(directed)
	for _, d := range deltas {
		for _, op := range d.Ops {
			if err := ApplyOp(g, op); err != nil {
				t.Fatalf("replay epoch %d: %v", d.Epoch, err)
			}
		}
	}
	return g
}

func TestFrozenGraphPanicsOnMutation(t *testing.T) {
	g := path(t, 3)
	Freeze(g)
	mutators := map[string]func(){
		"AddNode":     func() { g.AddNode() },
		"AddEdge":     func() { g.AddEdge(0, 2) },
		"SetLabel":    func() { g.SetLabel(0, "x") },
		"SetNodeAttr": func() { g.SetNodeAttr(0, "k", "v") },
		"SetEdgeAttr": func() { g.SetEdgeAttr(0, "k", "v") },
	}
	for name, fn := range mutators {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on frozen graph did not panic", name)
				}
			}()
			fn()
		}()
	}
	// Reads must keep working.
	if g.NumNodes() != 3 || len(g.AllNeighbors(1)) != 2 {
		t.Fatal("reads broken after freeze")
	}
}

func TestWriterPublishVisibility(t *testing.T) {
	w := NewShardedWriter(New(false), 1)
	s0 := w.Snapshot()
	if s0.Epoch() != 0 || s0.NumNodes() != 0 {
		t.Fatalf("epoch0 = %d nodes=%d", s0.Epoch(), s0.NumNodes())
	}

	a := w.AddNode()
	b := w.AddNode()
	w.AddEdge(a, b)
	w.SetLabel(a, "red")

	// Nothing visible before publish.
	if got := w.Snapshot(); got != s0 || got.NumNodes() != 0 {
		t.Fatal("pending ops leaked into published snapshot")
	}
	if w.Pending() != 4 {
		t.Fatalf("pending = %d want 4", w.Pending())
	}

	s1, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch() != 1 || s1.NumNodes() != 2 || s1.NumEdges() != 1 {
		t.Fatalf("s1 = epoch %d n=%d m=%d", s1.Epoch(), s1.NumNodes(), s1.NumEdges())
	}
	if s1.Graph().LabelString(a) != "red" {
		t.Fatalf("label = %q", s1.Graph().LabelString(a))
	}
	// s0 still frozen at its version.
	if s0.NumNodes() != 0 {
		t.Fatal("epoch-0 snapshot mutated")
	}
	// Publishing with nothing pending is a no-op.
	s1b, err := w.Publish()
	if err != nil || s1b != s1 {
		t.Fatalf("empty publish: %v %p vs %p", err, s1b, s1)
	}
}

func TestWriterSnapshotIsolationAcrossEpochs(t *testing.T) {
	for _, directed := range []bool{false, true} {
		t.Run(fmt.Sprintf("directed=%v", directed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			w := NewShardedWriter(New(directed), 1)
			var deltas []Delta
			w.Subscribe(func(_ *Snapshot, d Delta) { deltas = append(deltas, d) })
			w.AddNodes(8)
			if _, err := w.Publish(); err != nil {
				t.Fatal(err)
			}

			type held struct {
				snap *Snapshot
				fp   string
			}
			var pinned []held

			labels := []string{"a", "b", "c"}
			for epoch := 0; epoch < 30; epoch++ {
				for op := 0; op < 5; op++ {
					switch rng.Intn(5) {
					case 0:
						w.AddNode()
					case 1:
						n := w.Snapshot() // current staged range via stats
						_ = n
						u := NodeID(rng.Intn(w.Stats().Nodes))
						v := NodeID(rng.Intn(w.Stats().Nodes))
						w.AddEdge(u, v)
					case 2:
						w.SetLabel(NodeID(rng.Intn(w.Stats().Nodes)), labels[rng.Intn(len(labels))])
					case 3:
						w.SetNodeAttr(NodeID(rng.Intn(w.Stats().Nodes)), "k"+labels[rng.Intn(3)], fmt.Sprint(epoch))
					case 4:
						if w.Stats().Edges > 0 {
							w.SetEdgeAttr(EdgeID(rng.Intn(w.Stats().Edges)), "w", fmt.Sprint(epoch))
						}
					}
				}
				s, err := w.Publish()
				if err != nil {
					t.Fatal(err)
				}
				// Touch the CSR so later publishes extend it with overlays.
				if s.NumNodes() > 0 {
					s.Graph().AllNeighbors(0)
				}
				pinned = append(pinned, held{s, graphFingerprint(s.Graph())})
			}

			// Every pinned snapshot must still fingerprint identically, and
			// match an independent replay of its delta prefix.
			for i, h := range pinned {
				if got := graphFingerprint(h.snap.Graph()); got != h.fp {
					t.Fatalf("snapshot %d (epoch %d) changed after later publishes:\nbefore:\n%s\nafter:\n%s",
						i, h.snap.Epoch(), h.fp, got)
				}
				ref := replayOps(t, directed, deltas[:h.snap.Epoch()])
				if got, want := h.fp, graphFingerprint(ref); got != want {
					t.Fatalf("snapshot epoch %d diverges from replay:\nsnapshot:\n%s\nreplay:\n%s",
						h.snap.Epoch(), got, want)
				}
			}
		})
	}
}

func TestWriterOverlayMatchesCompactCSR(t *testing.T) {
	for _, directed := range []bool{false, true} {
		t.Run(fmt.Sprintf("directed=%v", directed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			g := New(directed)
			g.AddNodes(20)
			for i := 0; i < 30; i++ {
				g.AddEdge(NodeID(rng.Intn(20)), NodeID(rng.Intn(20)))
			}
			w := NewShardedWriter(g, 1)
			w.CompactOverlayAt = -1 // keep overlays so the test exercises them
			w.Snapshot().Graph().BuildCSR()

			for round := 0; round < 10; round++ {
				for i := 0; i < 4; i++ {
					if rng.Intn(3) == 0 {
						w.AddNode()
					}
					w.AddEdge(NodeID(rng.Intn(w.Stats().Nodes)), NodeID(rng.Intn(w.Stats().Nodes)))
				}
				s, err := w.Publish()
				if err != nil {
					t.Fatal(err)
				}
				if rows, built := s.Overlay(); !built || rows == 0 {
					t.Fatalf("round %d: expected overlay rows, got rows=%d built=%v", round, rows, built)
				}
				overlayFP := graphFingerprint(s.Graph())
				s.Graph().CompactCSR()
				if rows, _ := s.Overlay(); rows != 0 {
					t.Fatalf("round %d: overlay not folded by CompactCSR", round)
				}
				if got := graphFingerprint(s.Graph()); got != overlayFP {
					t.Fatalf("round %d: overlay view differs from compacted view:\noverlay:\n%s\ncompact:\n%s",
						round, overlayFP, got)
				}
			}
		})
	}
}

func TestWriterProfilesPerSnapshot(t *testing.T) {
	w := NewShardedWriter(New(false), 1)
	a := w.AddNode()
	b := w.AddNode()
	w.AddEdge(a, b)
	w.SetLabel(b, "x")
	s1, _ := w.Publish()
	p1 := append(Profile(nil), s1.Graph().NodeProfile(a)...)

	c := w.AddNode()
	w.AddEdge(a, c)
	w.SetLabel(c, "x")
	s2, _ := w.Publish()

	if !reflect.DeepEqual(append(Profile(nil), s1.Graph().NodeProfile(a)...), p1) {
		t.Fatal("epoch-1 profile changed after later publish")
	}
	xID, ok := s2.Graph().Labels().Lookup("x")
	if !ok {
		t.Fatal("label x missing at epoch 2")
	}
	if got := s2.Graph().NodeProfile(a)[xID]; got != 2 {
		t.Fatalf("epoch-2 profile[x] = %d want 2", got)
	}
	if got := s1.Graph().NodeProfile(a)[xID]; got != 1 {
		t.Fatalf("epoch-1 profile[x] = %d want 1", got)
	}
}

func TestWriterStagedValidation(t *testing.T) {
	w := NewShardedWriter(New(false), 1)
	a := w.AddNode()
	// Edge to a staged (unpublished) node is fine.
	w.AddEdge(a, a)
	for name, fn := range map[string]func(){
		"edge-oob":  func() { w.AddEdge(a, 5) },
		"label-oob": func() { w.SetLabel(9, "x") },
		"eattr-oob": func() { w.SetEdgeAttr(7, "k", "v") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWriterWALOrdering(t *testing.T) {
	var appended [][]Op
	fail := false
	w := NewShardedWriter(New(false), 1)
	w.SetWAL(walFunc(func(ops []Op) error {
		if fail {
			return fmt.Errorf("disk full")
		}
		appended = append(appended, append([]Op(nil), ops...))
		return nil
	}))

	w.AddNode()
	if _, err := w.Publish(); err != nil {
		t.Fatal(err)
	}
	if len(appended) != 1 || len(appended[0]) != 1 {
		t.Fatalf("wal batches = %v", appended)
	}

	// A failing WAL append must abort the publish, keep ops pending, and
	// (the failure being permanent — no Transient marker) degrade the
	// writer to read-only.
	w.AddNode()
	fail = true
	var de *DegradedError
	if _, err := w.Publish(); !errors.As(err, &de) {
		t.Fatalf("publish err = %v, want *DegradedError", err)
	}
	if got := w.Snapshot().NumNodes(); got != 1 {
		t.Fatalf("snapshot advanced past failed WAL append: nodes=%d", got)
	}
	if w.Pending() != 1 {
		t.Fatalf("pending = %d want 1 (retained for retry)", w.Pending())
	}
	// Degraded mode is sticky: the WAL being healthy again changes
	// nothing until the operator clears it.
	fail = false
	if _, err := w.Publish(); !errors.As(err, &de) {
		t.Fatalf("publish while degraded: err = %v, want *DegradedError", err)
	}
	if w.Degraded() == nil || !w.Stats().Degraded {
		t.Fatal("degraded state not reported")
	}
	if !w.ClearDegraded() {
		t.Fatal("ClearDegraded returned false on a degraded writer")
	}
	s, err := w.Publish()
	if err != nil || s.NumNodes() != 2 {
		t.Fatalf("retry publish: %v nodes=%d", err, s.NumNodes())
	}

	// Barrier exposes history newer than the requested epoch.
	var tailEpochs []uint64
	if err := w.Barrier(1, func(cur *Snapshot, tail []Delta) (WAL, error) {
		for _, d := range tail {
			tailEpochs = append(tailEpochs, d.Epoch)
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tailEpochs, []uint64{2}) {
		t.Fatalf("barrier tail = %v want [2]", tailEpochs)
	}
}

// walFunc is a WAL that reassembles each epoch from its parts by batch
// index and hands the flat batch to the func.
type walFunc func(ops []Op) error

func (f walFunc) AppendShardBatch(parts []ShardBatch, totalOps int) error {
	ops := make([]Op, totalOps)
	for _, p := range parts {
		for i, op := range p.Ops {
			ops[p.Index[i]] = op
		}
	}
	return f(ops)
}

func TestWriterBackgroundCompaction(t *testing.T) {
	g := New(false)
	g.AddNodes(64)
	w := NewShardedWriter(g, 1)
	w.CompactOverlayAt = 4
	w.Snapshot().Graph().BuildCSR()

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		w.AddEdge(NodeID(rng.Intn(64)), NodeID(rng.Intn(64)))
		if _, err := w.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction is asynchronous; wait for the in-flight one, then verify
	// at least one ran and the view stayed correct.
	for w.compacting.Load() {
	}
	if w.Stats().Compactions == 0 {
		t.Fatal("no background compaction ran despite CompactOverlayAt=4")
	}
	s := w.Snapshot()
	fp := graphFingerprint(s.Graph())
	s.Graph().CompactCSR()
	if got := graphFingerprint(s.Graph()); got != fp {
		t.Fatal("compacted view diverges from overlay view")
	}
}
