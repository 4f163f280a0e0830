package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// fingerprintDyn canonicalizes a graph's observable state (structure,
// labels, attrs) for equality checks across replay/recovery.
func fingerprintDyn(g *graph.Graph) string {
	var b []byte
	b = append(b, fmt.Sprintf("n=%d m=%d d=%v\n", g.NumNodes(), g.NumEdges(), g.Directed())...)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		b = append(b, fmt.Sprintf("e%d:%d-%d\n", e, ed.From, ed.To)...)
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		b = append(b, fmt.Sprintf("v%d:%s:%v\n", n, g.LabelString(id), g.NodeAttrs(id))...)
	}
	return string(b)
}

func openDynAt(t *testing.T, dir string) (*DynamicStore, string) {
	t.Helper()
	base := filepath.Join(dir, "g.egoc")
	if _, err := os.Stat(base); os.IsNotExist(err) {
		g := graph.New(false)
		g.AddNodes(4)
		g.AddEdge(0, 1)
		ds, err := CreateDynamicShardedFS(fault.OS{}, base, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ds, base
	}
	ds, err := OpenDynamic(base)
	if err != nil {
		t.Fatal(err)
	}
	return ds, base
}

func TestDynamicPublishReplay(t *testing.T) {
	dir := t.TempDir()
	ds, base := openDynAt(t, dir)
	w := ds.Writer()
	a := w.AddNode() // node 4
	w.AddEdge(a, 0)
	w.SetLabel(a, "hub")
	w.SetNodeAttr(a, "name", "added")
	if _, err := w.Publish(); err != nil {
		t.Fatal(err)
	}
	w.AddEdge(1, 2)
	s2, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintDyn(s2.Graph())
	wantEpoch := s2.Epoch()
	// Unpublished ops must not survive.
	w.AddNode()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := OpenDynamic(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	s := ds2.Snapshot()
	if s.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch = %d want %d", s.Epoch(), wantEpoch)
	}
	if got := fingerprintDyn(s.Graph()); got != want {
		t.Fatalf("recovered state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The recovered writer keeps going from the same epoch sequence.
	ds2.Writer().AddNode()
	s3, err := ds2.Writer().Publish()
	if err != nil || s3.Epoch() != wantEpoch+1 {
		t.Fatalf("post-recovery publish: %v epoch=%d want %d", err, s3.Epoch(), wantEpoch+1)
	}
}

// TestDynamicCrashTornTail simulates a crash mid-log-append: every proper
// prefix of the final record must recover to the state before that batch,
// with no *CorruptFileError.
func TestDynamicCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	ds, base := openDynAt(t, dir)
	w := ds.Writer()
	w.AddEdge(1, 2)
	s1, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintDyn(s1.Graph())
	wantEpoch := s1.Epoch()
	b := w.AddNode()
	w.AddEdge(b, 3)
	w.SetLabel(b, "late")
	if _, err := w.Publish(); err != nil {
		t.Fatal(err)
	}
	intactSize := func() int64 {
		fi, err := os.Stat(base + ".log")
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}()
	full, err := os.ReadFile(base + ".log")
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()

	// Find where the last record begins by reopening at each candidate
	// truncation point: every size in (lastRecordStart, intactSize) is a
	// torn tail. Walk a spread of cut points including off-by-ones.
	var lastStart int64
	{
		// The first publish produced record 1; its frame length can be
		// recomputed by scanning from the header.
		deltas, validLen, err := scanLogRecords(base+".log", full[logHeaderSize:], 0)
		if err != nil || len(deltas) != 2 {
			t.Fatalf("scan: %v (%d records)", err, len(deltas))
		}
		_ = validLen
		// Rescan with only the first record's bytes to find its end.
		for cut := int64(logHeaderSize) + 1; cut < int64(len(full)); cut++ {
			d, _, err := scanLogRecords(base+".log", full[logHeaderSize:cut], 0)
			if err == nil && len(d) == 1 {
				lastStart = cut
				break
			}
		}
	}
	if lastStart == 0 {
		t.Fatal("could not locate record boundary")
	}

	for _, cut := range []int64{lastStart, lastStart + 1, (lastStart + intactSize) / 2, intactSize - 1} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			if err := os.WriteFile(base+".log", full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			ds2, err := OpenDynamic(base)
			if err != nil {
				var cfe *CorruptFileError
				if errors.As(err, &cfe) {
					t.Fatalf("torn tail reported as corruption: %v", err)
				}
				t.Fatal(err)
			}
			defer ds2.Close()
			s := ds2.Snapshot()
			if s.Epoch() != wantEpoch {
				t.Fatalf("recovered epoch = %d want %d", s.Epoch(), wantEpoch)
			}
			if got := fingerprintDyn(s.Graph()); got != want {
				t.Fatalf("torn-tail recovery state differs:\ngot:\n%s\nwant:\n%s", got, want)
			}
			// The truncated tail must not poison later appends.
			ds2.Writer().AddNode()
			if _, err := ds2.Writer().Publish(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDynamicCorruptRecordIsCorruptError(t *testing.T) {
	dir := t.TempDir()
	ds, base := openDynAt(t, dir)
	ds.Writer().AddEdge(2, 3)
	if _, err := ds.Writer().Publish(); err != nil {
		t.Fatal(err)
	}
	ds.Writer().AddEdge(0, 3)
	if _, err := ds.Writer().Publish(); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	logPath := base + ".log"
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// Flipping a bit inside the FIRST record's payload while fixing up its
	// CRC would be structural corruption; simpler: corrupt the op kind and
	// recompute nothing — the CRC then fails on a NON-final record, which
	// still truncates at that point (prefix semantics). Instead corrupt
	// the header magic: unambiguous structural damage.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if err := os.WriteFile(logPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDynamic(base)
	var cfe *CorruptFileError
	if !errors.As(err, &cfe) {
		t.Fatalf("bad magic: err = %T (%v), want *CorruptFileError", err, err)
	}
}

func TestDynamicCompactAndStaleLogRecovery(t *testing.T) {
	dir := t.TempDir()
	ds, base := openDynAt(t, dir)
	w := ds.Writer()
	for i := 0; i < 5; i++ {
		n := w.AddNode()
		w.AddEdge(n, 0)
		w.SetLabel(n, "x")
		if _, err := w.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	preCompact := fingerprintDyn(ds.Snapshot().Graph())
	epoch := ds.Snapshot().Epoch()

	// Keep a copy of the pre-compaction log to simulate the crash window.
	oldLog, err := os.ReadFile(base + ".log")
	if err != nil {
		t.Fatal(err)
	}

	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if rec, _, baseEpoch := ds.LogStats(); rec != 0 || baseEpoch != epoch {
		t.Fatalf("post-compact log: records=%d baseEpoch=%d want 0,%d", rec, baseEpoch, epoch)
	}
	// Published state unchanged by compaction, and appends continue.
	if got := fingerprintDyn(ds.Snapshot().Graph()); got != preCompact {
		t.Fatal("compaction changed the published state")
	}
	w.AddEdge(0, 1)
	if _, err := w.Publish(); err != nil {
		t.Fatal(err)
	}
	postAppend := fingerprintDyn(ds.Snapshot().Graph())
	ds.Close()

	// Normal reopen after compaction.
	ds2, err := OpenDynamic(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintDyn(ds2.Snapshot().Graph()); got != postAppend {
		t.Fatal("reopen after compaction lost state")
	}
	if ds2.Snapshot().Epoch() != epoch+1 {
		t.Fatalf("epoch = %d want %d", ds2.Snapshot().Epoch(), epoch+1)
	}
	ds2.Close()

	// Crash window: new base image on disk, but the OLD log (pre-compact)
	// still in place. The CRC binding must flag it stale; recovery serves
	// the compacted image and resumes past the stale log's epochs.
	if err := os.WriteFile(base+".log", oldLog, 0o644); err != nil {
		t.Fatal(err)
	}
	ds3, err := OpenDynamic(base)
	if err != nil {
		t.Fatalf("stale-log recovery failed: %v", err)
	}
	defer ds3.Close()
	if got := fingerprintDyn(ds3.Snapshot().Graph()); got != preCompact {
		t.Fatal("stale-log recovery did not serve the compacted base image")
	}
	if got := ds3.Snapshot().Epoch(); got < epoch {
		t.Fatalf("epoch went backwards after stale-log recovery: %d < %d", got, epoch)
	}
	ds3.Writer().AddNode()
	if _, err := ds3.Writer().Publish(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	ds, _ := openDynAt(t, dir)
	defer ds.Close()
	ds.SetCompactAtBytes(256)
	w := ds.Writer()
	for i := 0; i < 50; i++ {
		n := w.AddNode()
		w.AddEdge(n, 0)
		w.SetNodeAttr(n, "padpadpadpadpad", "valvalvalvalval")
		if _, err := w.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	// The compactor runs asynchronously; poll until the log shrank below
	// the threshold plus one batch, bounded by the test deadline.
	for {
		if _, bytes, _ := ds.LogStats(); bytes < 1024 {
			break
		}
	}
}

func TestLogEncodeDecodeRoundTrip(t *testing.T) {
	ops := []graph.Op{
		{Kind: graph.OpAddNode},
		{Kind: graph.OpAddEdge, A: 3, B: 7},
		{Kind: graph.OpSetLabel, A: 2, Val: "label-值"},
		{Kind: graph.OpSetNodeAttr, A: 1, Key: "k", Val: ""},
		{Kind: graph.OpSetEdgeAttr, A: 0, Key: "", Val: "v"},
	}
	rec := appendLogRecord(nil, 42, ops)
	deltas, n, err := scanLogRecords("mem", rec, 41)
	if err != nil || n != len(rec) || len(deltas) != 1 {
		t.Fatalf("scan: %v n=%d deltas=%d", err, n, len(deltas))
	}
	if deltas[0].Epoch != 42 || len(deltas[0].Ops) != len(ops) {
		t.Fatalf("decoded %+v", deltas[0])
	}
	for i, op := range deltas[0].Ops {
		if op != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, op, ops[i])
		}
	}
}
