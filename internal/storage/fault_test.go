package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// These tests drive the mutation log and the MVCC writer through
// fault.Injector plans: scripted sync failures, torn writes at every byte
// of a record frame, and crash-after-op halts. They pin down the
// replay-or-truncate recovery contract and the transient/permanent error
// classification the writer's retry policy depends on.

func faultBatch(i int) []graph.Op {
	return []graph.Op{
		{Kind: graph.OpAddNode},
		{Kind: graph.OpSetNodeAttr, A: int32(i), Key: "seq", Val: fmt.Sprintf("b%d", i)},
	}
}

// appendEpoch appends ops as the log's next epoch, op i on segment
// (epoch + i*stride) mod P. Stride 0 keeps the whole epoch on one segment,
// a single part written on the calling goroutine, so fault-occurrence
// counts stay deterministic; stride 1 spreads it across segments.
func appendEpoch(l *Log, ops []graph.Op, stride int) error {
	p := len(l.segs)
	epoch := int(l.LastEpoch() + 1)
	byShard := make([]graph.ShardBatch, p)
	for i, op := range ops {
		b := &byShard[(epoch+i*stride)%p]
		b.Index = append(b.Index, uint32(i))
		b.Ops = append(b.Ops, op)
	}
	var parts []graph.ShardBatch
	for s, b := range byShard {
		if len(b.Ops) > 0 {
			b.Shard = s
			parts = append(parts, b)
		}
	}
	return l.AppendShardBatch(parts, len(ops))
}

// eachShardCount runs fn over a one-shard log (v1 segment) and, as the
// subtest "shards=4", over a four-shard one (v2 segments). The one-shard
// run stays directly under t, so its subtests keep their names.
func eachShardCount(t *testing.T, fn func(t *testing.T, shards int)) {
	fn(t, 1)
	t.Run("shards=4", func(t *testing.T) { fn(t, 4) })
}

// countingReplay returns an apply func plus the slice it fills.
func countingReplay(got *[]graph.Delta) func(graph.Delta) error {
	return func(d graph.Delta) error {
		*got = append(*got, d)
		return nil
	}
}

func TestLogFailedSyncIsTransientAndRetryable(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		base := filepath.Join(t.TempDir(), "m")
		// Syncs #1..#P are the header fsyncs in CreateLogFS; #P+1 is the
		// first append's.
		inj := fault.NewInjector(fault.OS{}, 1,
			fault.Rule{Op: fault.OpSync, Path: ".log", From: shards + 1, Count: 1, Err: syscall.ENOSPC})
		l, err := CreateLogFS(inj, base, 0xFEED, 7, shards)
		if err != nil {
			t.Fatal(err)
		}
		err = appendEpoch(l, faultBatch(1), 0)
		if err == nil {
			t.Fatal("append with failing sync succeeded")
		}
		var te *TransientError
		if !errors.As(err, &te) {
			t.Fatalf("want *TransientError, got %T: %v", err, err)
		}
		if !graph.IsTransient(err) {
			t.Fatalf("graph.IsTransient = false for %v", err)
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("errors.Is(err, ENOSPC) = false for %v", err)
		}
		// The failed frame was truncated and the offset rewound, so the same
		// batch retries cleanly at the same epoch.
		if err := appendEpoch(l, faultBatch(1), 0); err != nil {
			t.Fatalf("retry after transient failure: %v", err)
		}
		if l.Records() != 1 || l.LastEpoch() != 8 {
			t.Fatalf("records=%d lastEpoch=%d, want 1/8", l.Records(), l.LastEpoch())
		}
		l.Close()

		var got []graph.Delta
		l2, err := OpenLogFS(fault.OS{}, base, 0xFEED, shards, countingReplay(&got))
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if len(got) != 1 || got[0].Epoch != 8 {
			t.Fatalf("replayed %d records (first epoch %v), want 1 at epoch 8", len(got), got)
		}
	})
}

func TestLogTornWriteEveryCut(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		const baseCRC, baseEpoch = 0xC0FFEE, 40
		ops3 := faultBatch(3)
		rec, err := formatFor(shards).appendRecord(nil, baseEpoch+3, len(ops3),
			&graph.ShardBatch{Index: []uint32{0, 1}, Ops: ops3})
		if err != nil {
			t.Fatal(err)
		}
		recLen := len(rec)
		for keep := 0; keep <= recLen; keep++ {
			t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
				base := filepath.Join(t.TempDir(), "m")
				// Writes #1..#P are the headers; #P+3 is the third record.
				// The torn prefix really reaches disk, and the rewind
				// truncate fails too, so recovery sees exactly the crash
				// artifact.
				inj := fault.NewInjector(fault.OS{}, 1,
					fault.Rule{Op: fault.OpWrite, Path: ".log", From: shards + 3, Count: 1, Err: syscall.EIO, KeepBytes: keep},
					fault.Rule{Op: fault.OpTruncate, Path: ".log", Err: syscall.EIO})
				l, err := CreateLogFS(inj, base, baseCRC, baseEpoch, shards)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= 2; i++ {
					if err := appendEpoch(l, faultBatch(i), 0); err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
				}
				if err := appendEpoch(l, ops3, 0); err == nil {
					t.Fatal("torn append reported success")
				}
				// Truncation failed, so the segment marks itself broken
				// rather than risk appending after a partial frame.
				if err := appendEpoch(l, faultBatch(4), 0); err == nil {
					t.Fatal("append after unrecoverable tear succeeded")
				}
				l.Close()

				wantRecs, wantEpoch := 2, uint64(baseEpoch+2)
				if keep == recLen {
					// The full frame reached disk before the error: recovery
					// must replay it (replay branch of replay-or-truncate).
					wantRecs, wantEpoch = 3, baseEpoch+3
				}
				var got []graph.Delta
				l2, err := OpenLogFS(fault.OS{}, base, baseCRC, shards, countingReplay(&got))
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				if len(got) != wantRecs || l2.Records() != wantRecs || l2.LastEpoch() != wantEpoch {
					t.Fatalf("recovered %d deltas (log: %d records, last epoch %d), want %d/%d",
						len(got), l2.Records(), l2.LastEpoch(), wantRecs, wantEpoch)
				}
				for i, d := range got {
					if d.Epoch != uint64(baseEpoch+1+i) {
						t.Fatalf("delta %d has epoch %d, want %d", i, d.Epoch, baseEpoch+1+i)
					}
				}
				// The recovered log is positioned at a clean boundary:
				// appends resume the epoch sequence.
				if err := appendEpoch(l2, faultBatch(9), 0); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				if l2.Records() != wantRecs+1 || l2.LastEpoch() != wantEpoch+1 {
					t.Fatalf("post-recovery append: records=%d lastEpoch=%d", l2.Records(), l2.LastEpoch())
				}
				l2.Close()
			})
		}
	})
}

func TestLogSyncFailureHaltKeepsDurableRecord(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		base := filepath.Join(t.TempDir(), "m")
		// The third append's write completes, its fsync fails, and the
		// process dies before the truncate can undo anything: the frame's
		// bytes are on disk, so recovery legitimately replays an epoch the
		// writer never acknowledged. This is why crash recovery accepts
		// epoch last+1. Syncs #1..#P are the headers'.
		inj := fault.NewInjector(fault.OS{}, 1,
			fault.Rule{Op: fault.OpSync, Path: ".log", From: shards + 3, Count: 1, Err: syscall.EIO, Halt: true})
		l, err := CreateLogFS(inj, base, 0xBEEF, 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 2; i++ {
			if err := appendEpoch(l, faultBatch(i), 0); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		err = appendEpoch(l, faultBatch(3), 0)
		if err == nil {
			t.Fatal("append with halted filesystem succeeded")
		}
		if graph.IsTransient(err) {
			t.Fatalf("unrecoverable tear classified transient: %v", err)
		}
		if !inj.Halted() {
			t.Fatal("injector did not halt")
		}
		l.Close()

		var got []graph.Delta
		l2, err := OpenLogFS(fault.OS{}, base, 0xBEEF, shards, countingReplay(&got))
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if len(got) != 3 || l2.LastEpoch() != 3 {
			t.Fatalf("recovered %d records, last epoch %d; want the durable-but-unacked record replayed (3/3)",
				len(got), l2.LastEpoch())
		}
	})
}

func TestWriterRetriesTransientWALFailures(t *testing.T) {
	base := filepath.Join(t.TempDir(), "m")
	// Syncs #2 and #3 (the first two append attempts) fail with ENOSPC;
	// attempt three lands. The publish must succeed without degrading.
	inj := fault.NewInjector(fault.OS{}, 1,
		fault.Rule{Op: fault.OpSync, Path: ".log", From: 2, Count: 2, Err: syscall.ENOSPC})
	l, err := CreateLogFS(inj, base, 0xAB, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	w := graph.NewShardedWriter(graph.New(false), 1)
	w.WALRetry = graph.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	w.SetWAL(l)
	w.AddNode()
	snap, err := w.Publish()
	if err != nil {
		t.Fatalf("publish with transient faults: %v", err)
	}
	if snap.Epoch() != 1 || snap.NumNodes() != 1 {
		t.Fatalf("snapshot epoch=%d nodes=%d, want 1/1", snap.Epoch(), snap.NumNodes())
	}
	if fired := inj.RuleFired(0); fired != 2 {
		t.Fatalf("rule fired %d times, want 2", fired)
	}
	if w.Degraded() != nil {
		t.Fatalf("writer degraded after successful retry: %v", w.Degraded())
	}
	if l.Records() != 1 || l.LastEpoch() != 1 {
		t.Fatalf("log records=%d lastEpoch=%d, want 1/1", l.Records(), l.LastEpoch())
	}
}

func TestWriterDegradesOnPermanentWALFailure(t *testing.T) {
	base := filepath.Join(t.TempDir(), "m")
	inj := fault.NewInjector(fault.OS{}, 1,
		fault.Rule{Op: fault.OpSync, Path: ".log", From: 2, Err: syscall.EIO})
	l, err := CreateLogFS(inj, base, 0xAB, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	w := graph.NewShardedWriter(graph.New(false), 1)
	w.WALRetry = graph.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	w.SetWAL(l)
	pinned := w.Snapshot()
	w.AddNode()
	_, err = w.Publish()
	var de *graph.DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("want *DegradedError, got %T: %v", err, err)
	}
	if de.Epoch != 0 {
		t.Fatalf("degraded at epoch %d, want 0", de.Epoch)
	}
	// EIO is permanent: exactly one attempt, no retries.
	if fired := inj.RuleFired(0); fired != 1 {
		t.Fatalf("rule fired %d times, want 1 (no retry of permanent errors)", fired)
	}
	// Degraded publishes fail fast without touching the WAL again.
	if _, err2 := w.Publish(); !errors.Is(err2, err) && err2 != err {
		t.Fatalf("second publish error %v, want the sticky %v", err2, err)
	}
	if fired := inj.RuleFired(0); fired != 1 {
		t.Fatalf("degraded publish reached the WAL (rule fired %d times)", fired)
	}
	// Readers are untouched: the pinned snapshot and fresh acquisitions
	// both serve epoch 0.
	if pinned.Epoch() != 0 || w.Snapshot().Epoch() != 0 {
		t.Fatal("degraded writer disturbed reader snapshots")
	}
	if !w.Stats().Degraded {
		t.Fatal("Stats().Degraded = false")
	}

	// Operator fixes the disk, clears the plan, re-arms the writer: the
	// retained pending batch publishes.
	inj.ClearRules()
	if !w.ClearDegraded() {
		t.Fatal("ClearDegraded reported not-degraded")
	}
	snap, err := w.Publish()
	if err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
	if snap.Epoch() != 1 || snap.NumNodes() != 1 {
		t.Fatalf("recovered snapshot epoch=%d nodes=%d, want 1/1", snap.Epoch(), snap.NumNodes())
	}
	l.Close()

	var got []graph.Delta
	l2, err := OpenLogFS(fault.OS{}, base, 0xAB, 1, countingReplay(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("log holds %d records after recovery, want the published batch at epoch 1", len(got))
	}
}

func TestSaveToleratesDirectorySyncFailure(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "g.egoc")
	// Sync #1 is the temp file's; #2 is the directory's. The latter is
	// best-effort by design (logged once per process, never fatal).
	inj := fault.NewInjector(fault.OS{}, 1,
		fault.Rule{Op: fault.OpSync, From: 2, Count: 1, Err: syscall.EIO})
	g := graph.New(false)
	g.AddNodes(3)
	g.AddEdge(0, 1)
	if err := SaveFS(inj, p, g); err != nil {
		t.Fatalf("save with failing directory fsync: %v", err)
	}
	if fired := inj.RuleFired(0); fired != 1 {
		t.Fatalf("directory-sync rule fired %d times, want 1", fired)
	}
	g2, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 3 || g2.NumEdges() != 1 {
		t.Fatalf("roundtrip got %d nodes / %d edges", g2.NumNodes(), g2.NumEdges())
	}
}

// countSaveWrites returns how many writes a clean save of g issues.
func countSaveWrites(t *testing.T, g *graph.Graph) int {
	t.Helper()
	inj := fault.NewInjector(fault.OS{}, 1)
	if err := SaveFS(inj, filepath.Join(t.TempDir(), "count.egoc"), g); err != nil {
		t.Fatal(err)
	}
	return int(inj.OpCount(fault.OpWrite))
}

// TestSaveFailedWriteEveryBlock fails each write of an image save in
// turn, cleanly and torn, and then its fsync. Every failure must fail the
// save with the injected error, keep the previous image byte for byte and
// leave no temporary file behind.
func TestSaveFailedWriteEveryBlock(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "g.egoc")
	if err := Save(p, goldenDirected()); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenER()
	writes := countSaveWrites(t, g)
	if writes < 3 {
		t.Fatalf("the image took %d writes; the test needs several blocks", writes)
	}
	var rules []fault.Rule
	for k := 1; k <= writes; k++ {
		for _, keep := range []int{0, 3} {
			rules = append(rules, fault.Rule{Op: fault.OpWrite, Path: ".egoc-save-", From: k, Count: 1, Err: syscall.ENOSPC, KeepBytes: keep})
		}
	}
	rules = append(rules, fault.Rule{Op: fault.OpSync, Path: ".egoc-save-", Count: 1, Err: syscall.EIO})
	for _, r := range rules {
		inj := fault.NewInjector(fault.OS{}, 1, r)
		err := SaveFS(inj, p, g)
		var ie *fault.InjectedError
		if !errors.As(err, &ie) || !errors.Is(err, r.Err) || inj.RuleFired(0) != 1 {
			t.Fatalf("%s #%d (keep %d): save returned %v, want the injected %v", r.Op, r.From, r.KeepBytes, err, r.Err)
		}
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, prev) {
			t.Fatalf("%s #%d (keep %d): previous image changed (err %v)", r.Op, r.From, r.KeepBytes, err)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, ".egoc-save-*")); len(left) != 0 {
			t.Fatalf("%s #%d (keep %d): temporary files left: %v", r.Op, r.From, r.KeepBytes, left)
		}
	}
}

// TestDynamicCompactFailsInMiddleBlock fails a compaction's image save in
// its middle block: the compaction fails, every acknowledged epoch
// survives a reopen, publishes go on, and a later compaction succeeds.
func TestDynamicCompactFailsInMiddleBlock(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		inj := fault.NewInjector(fault.OS{}, 1)
		base := filepath.Join(t.TempDir(), "g.egoc")
		ds, err := CreateDynamicShardedFS(inj, base, goldenER(), shards)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		ds.SetCompactAtBytes(0)
		ackEpoch := publishShardBatches(t, ds, 5, 3)
		checkReopen := func(stage string) {
			t.Helper()
			want := fingerprintDyn(ds.Snapshot().Graph())
			if epoch, fp := reopenCopy(t, base); epoch != ackEpoch || fp != want {
				t.Fatalf("%s: reopened at epoch %d (same state: %v), last acknowledged epoch %d", stage, epoch, fp == want, ackEpoch)
			}
		}

		mid := (countSaveWrites(t, ds.Snapshot().Graph()) + 1) / 2
		inj.SetRules(fault.Rule{Op: fault.OpWrite, Path: ".egoc-save-", From: mid, Count: 1, Err: syscall.EIO, KeepBytes: 100})
		if err := ds.Compact(); !errors.Is(err, syscall.EIO) || inj.RuleFired(0) != 1 {
			t.Fatalf("compaction failing at write %d returned %v", mid, err)
		}
		checkReopen("after the failed compaction")
		ackEpoch = publishShardBatches(t, ds, 6, 2)
		checkReopen("after publishing on")

		inj.ClearRules()
		if err := ds.Compact(); err != nil {
			t.Fatalf("compaction on a healthy disk: %v", err)
		}
		ackEpoch = publishShardBatches(t, ds, 7, 1)
		checkReopen("after compacting")
	})
}

// FuzzMutlogFaultRecovery crashes the filesystem at a fuzzed point while
// appending to a log of a fuzzed shard count (1-4, so both segment
// formats) and asserts the recovery invariants: OpenLogFS never panics,
// replays every fsynced epoch, at most one unacknowledged-but-durable
// epoch beyond that, keeps epochs contiguous, and leaves the log
// appendable. Epochs spread their ops across segments, so a crash can
// also land between the segment writes of one epoch.
func FuzzMutlogFaultRecovery(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(10), false, uint8(0))
	f.Add(int64(2), uint8(2), uint8(0), true, uint8(0))
	f.Add(int64(3), uint8(5), uint8(200), true, uint8(0))
	f.Add(int64(4), uint8(1), uint8(3), false, uint8(0))
	f.Add(int64(5), uint8(7), uint8(12), false, uint8(3))
	f.Add(int64(6), uint8(6), uint8(0), true, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, occ, keep uint8, syncFail bool, shardSel uint8) {
		shards := int(shardSel%4) + 1
		base := filepath.Join(t.TempDir(), "f")
		op := fault.OpWrite
		if syncFail {
			op = fault.OpSync
		}
		inj := fault.NewInjector(fault.OS{}, seed,
			fault.Rule{Op: op, Path: ".log", From: int(occ%8) + 1, Count: 1, Err: syscall.EIO, KeepBytes: int(keep), Halt: true},
			fault.Rule{Op: fault.OpTruncate, Path: ".log", Err: syscall.EIO})
		const baseCRC, baseEpoch = 0x5EED, 3
		l, err := CreateLogFS(inj, base, baseCRC, baseEpoch, shards)
		if err != nil {
			// The crash hit a header write: there is no log to recover.
			return
		}
		appended := 0
		for i := 0; i < 4; i++ {
			if err := appendEpoch(l, faultBatch(i), 1); err == nil {
				appended++
			}
		}
		l.Close()

		recovered := 0
		l2, err := OpenLogFS(fault.OS{}, base, baseCRC, shards, func(graph.Delta) error { recovered++; return nil })
		if err != nil {
			t.Fatalf("recovery failed (seed=%d occ=%d keep=%d sync=%v shards=%d): %v", seed, occ, keep, syncFail, shards, err)
		}
		if recovered < appended || recovered > appended+1 {
			t.Fatalf("recovered %d epochs from %d acknowledged appends", recovered, appended)
		}
		if l2.Records() != recovered || l2.LastEpoch() != baseEpoch+uint64(recovered) {
			t.Fatalf("log records=%d lastEpoch=%d after recovering %d", l2.Records(), l2.LastEpoch(), recovered)
		}
		if err := appendEpoch(l2, faultBatch(9), 1); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l2.Close()

		final := 0
		l3, err := OpenLogFS(fault.OS{}, base, baseCRC, shards, func(graph.Delta) error { final++; return nil })
		if err != nil {
			t.Fatal(err)
		}
		l3.Close()
		if final != recovered+1 {
			t.Fatalf("after post-recovery append: %d epochs, want %d", final, recovered+1)
		}
	})
}
