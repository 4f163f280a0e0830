package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/graph"
	"egocensus/internal/storage"
)

// referenceRows computes the expected table of `SELECT ID, COUNTP(...)
// ... WHERE bucket = <b>` by the independent route: the baseline ND-BAS
// driver, one worker, the library-built pattern, the benchmark's own
// focal list — no parser, planner, cache or HTTP involved.
func referenceRows(ctx context.Context, g *graph.Graph, st statement, focal []graph.NodeID) ([][]string, error) {
	res, err := core.CountContext(ctx, g, core.Spec{Pattern: st.ref, K: st.k, Focal: focal}, core.NDBas, core.Options{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("reference census: %w", err)
	}
	rows := make([][]string, len(focal))
	for i, n := range focal {
		rows[i] = []string{strconv.Itoa(int(n)), strconv.FormatInt(res.Counts[n], 10)}
	}
	return rows, nil
}

func equalRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// reference is the expected rows for a key; tests substitute a corrupted
// one to show a wrong answer is caught.
type reference func(ctx context.Context, g *graph.Graph, st statement, focal []graph.NodeID) ([][]string, error)

// verifyResponses compares the first response kept for every key with
// the reference, version by version: the reference graph starts as the
// generated graph (version 0) and has the writer's batches replayed onto
// it up to each sampled version in turn. It returns how many responses
// carried a wrong answer; every response sharing a key shares its fate,
// because the loop already checked they all had the same rows.
func verifyResponses(ctx context.Context, in *inputs, seen map[respKey]*observed, ref reference) (wrong int, err error) {
	keys := make([]respKey, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.stmt != b.stmt {
			return a.stmt < b.stmt
		}
		return a.bucket < b.bucket
	})
	g := in.g
	var edges *edgeStream
	at := uint64(0)
	for _, k := range keys {
		if k.epoch > at {
			if edges == nil {
				g, edges = in.g.Clone(), newEdgeStream(in)
			}
			for ; at < k.epoch; at++ {
				for j := 0; j < batchEdges; j++ {
					g.AddEdge(edges.next())
				}
			}
		}
		want, err := ref(ctx, g, in.wl.stmts[k.stmt], in.bucketNodes[k.bucket])
		if err != nil {
			return 0, err
		}
		if !equalRows(seen[k].rows, want) {
			wrong += seen[k].count
		}
	}
	return wrong, nil
}

// censusChecksum hashes the triangle census (k=1, ND-BAS, one worker) of
// a seeded node sample together with the node and edge counts.
func censusChecksum(ctx context.Context, in *inputs, g *graph.Graph) (uint64, error) {
	focal := in.sampleNodes(200)
	sort.Slice(focal, func(i, j int) bool { return focal[i] < focal[j] })
	rows, err := referenceRows(ctx, g, triStatement(1), focal)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d", g.NumNodes(), g.NumEdges(), hashRows(rows))
	return h.Sum64(), nil
}

// verifyDurable closes the store, reopens it from disk, and checks that
// the recovered version is the last acknowledged one and that its graph
// equals, by counts and census checksum, an in-memory graph fed the same
// edges. The reopened store replaces e.ds. It returns how long the
// reopen (image load plus log replay) took.
func (e *env) verifyDurable(ctx context.Context, tr *tracer) (reopen time.Duration, err error) {
	if err := e.ds.Close(); err != nil {
		return 0, fmt.Errorf("closing store: %w", err)
	}
	sp := tr.start("storage.OpenDynamic", nil, tr.newOp())
	t0 := time.Now()
	ds, err := storage.OpenDynamicFS(e.fs, e.image)
	reopen = time.Since(t0)
	sp.end()
	if err != nil {
		e.ds = nil
		return 0, fmt.Errorf("reopening store: %w", err)
	}
	e.ds = ds
	ds.SetCompactAtBytes(e.in.wl.compactAt)

	want := e.in.g.Clone()
	edges := newEdgeStream(e.in)
	for i := 0; i < e.batches*batchEdges; i++ {
		want.AddEdge(edges.next())
	}
	snap := ds.Snapshot()
	if snap.Epoch() != e.ackEpoch {
		return 0, fmt.Errorf("recovered epoch %d, acknowledged %d", snap.Epoch(), e.ackEpoch)
	}
	if snap.NumNodes() != want.NumNodes() || snap.NumEdges() != want.NumEdges() {
		return 0, fmt.Errorf("recovered %d nodes / %d edges, reference has %d / %d",
			snap.NumNodes(), snap.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	got, err := censusChecksum(ctx, e.in, snap.Graph())
	if err != nil {
		return 0, err
	}
	ref, err := censusChecksum(ctx, e.in, want)
	if err != nil {
		return 0, err
	}
	if got != ref {
		return 0, fmt.Errorf("recovered graph's census checksum %x differs from the reference's %x", got, ref)
	}
	return reopen, nil
}
