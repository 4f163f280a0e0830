package main

import (
	"fmt"
	"time"

	"egocensus/internal/pattern"
)

// kind names the caller-visible path a workload's operation takes.
type kind int

const (
	// kindQuery: op = one HTTP POST /v1/query, timed until the JSON rows
	// are decoded. Closed loop, 2 keep-alive clients.
	kindQuery kind = iota
	// kindColdOpen: op = storage.Open → engine → first table → Close.
	// Closed loop, 1 caller.
	kindColdOpen
	// kindIngest: op = 100 AddEdge + Publish on a durable store. Closed
	// loop, 1 caller.
	kindIngest
	// kindMixed: kindQuery ops on a live engine beside an open-loop
	// writer publishing durable batches on a fixed schedule.
	kindMixed
)

// Fixed shape of every workload; the numbers below size an operation, not
// a run (a run is opsPerSecond × --seconds operations).
const (
	edgesPerNode    = 5   // PA attachment count, the paper's "edges 5x nodes"
	numLabels       = 4   // the paper's labelled setting
	batchEdges      = 100 // AddEdge calls per publish
	queryClients    = 2
	writerInterval  = 100 * time.Millisecond
	epochSampleStep = 8 // kindMixed verifies responses of every 8th epoch
)

// statement is one census query text as a client sends it, with the
// independently built pattern the reference census counts.
type statement struct {
	// text carries its own PATTERN definition: the server prepares each
	// distinct text once and serves repeats from that statement.
	text string
	// ref and k describe the same census for core.CountContext; ref is
	// built with the pattern library, not parsed from text.
	ref *pattern.Pattern
	k   int
}

func triStatement(k int) statement {
	return statement{
		text: fmt.Sprintf(`PATTERN tri { ?A-?B; ?B-?C; ?A-?C; } SELECT ID, COUNTP(tri, SUBGRAPH(ID, %d)) FROM nodes WHERE bucket = $b`, k),
		ref:  pattern.Clique("tri", 3, nil),
		k:    k,
	}
}

func clq3Statement(k int) statement {
	return statement{
		text: fmt.Sprintf(`PATTERN clq3 { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL='l0']; [?B.LABEL='l1']; [?C.LABEL='l2']; } SELECT ID, COUNTP(clq3, SUBGRAPH(ID, %d)) FROM nodes WHERE bucket = $b`, k),
		ref:  pattern.Clique("clq3", 3, []string{"l0", "l1", "l2"}),
		k:    k,
	}
}

// workload is one named set of inputs. A workload sets the fields its
// kind reads and leaves the others zero.
type workload struct {
	name string
	why  string
	kind kind

	// opsPerSecond sizes a run: the measured window is opsPerSecond ×
	// --seconds operations, the same count on every machine, so that the
	// work, the counts and the state the program ends in repeat exactly.
	// Each figure is a little under what this 2-CPU box does at the
	// parent commit, so a window takes 0.6 to 0.9 × --seconds here. A loop
	// that has not finished after giveUpFactor × --seconds fails the run.
	opsPerSecond int
	// warmOps operations, over all callers, run before timing starts.
	warmOps int

	// nodes sizes the preferential-attachment graph.
	nodes int

	// Kinds that send statements (all but kindIngest): buckets splits the
	// nodes into focal sets of nodes/buckets, selected by WHERE bucket =
	// $b. noCache sets no_cache on every request; zipf draws (statement,
	// bucket) keys Zipf-skewed instead of cycling through all of them.
	buckets int
	stmts   []statement
	noCache bool
	zipf    bool

	// Kinds on a durable store (kindIngest, kindMixed): compactAt is the
	// log size that triggers a background compaction, chosen so several
	// happen inside one run.
	shards    int
	compactAt int64
}

// giveUpFactor × --seconds is when a loop stops handing out operations:
// on a box that slow, or after a regression that large, the operations
// not started count as failed rather than silently shortening the run.
const giveUpFactor = 6

// workloads lists the seven workloads in BENCHMARK.json order. The `why`
// strings are repeated there verbatim (TestBenchmarkJSONMatches). The two
// ingest workloads share every number but shards, so they publish the
// identical op stream.
var workloads = []*workload{
	{
		name: "http_nd_unlabeled", kind: kindQuery,
		why:          "fig 4c regime: unlabeled triangle, k=2, huge match set, planner goes node-driven; graph k-hop traversal and the core ND drivers do the work, match little",
		opsPerSecond: 150, warmOps: 50,
		nodes: 2000, buckets: 50, stmts: []statement{triStatement(2)}, noCache: true,
	},
	{
		name: "http_pt_labeled", kind: kindQuery,
		why:          "fig 4d regime: 4-label clq3 is selective, planner goes pattern-driven; match.CN and the PT drivers dominate, graph BFS little; a gain in one family must not show on the other",
		opsPerSecond: 300, warmOps: 50,
		nodes: 2000, buckets: 50, stmts: []statement{clq3Statement(2)}, noCache: true,
	},
	{
		name: "http_cached_zipf", kind: kindQuery,
		why:          "prepared statements, result cache on, Zipf keys over a working set that fits the cache: serve, fingerprint and cache probes dominate; a census speed-up predicts no change",
		opsPerSecond: 18000, warmOps: 128,
		nodes: 2000, buckets: 64, stmts: []statement{triStatement(2), clq3Statement(2)}, zipf: true,
	},
	{
		name: "cold_open_first_result", kind: kindColdOpen,
		why:          "storage.Open to first table, fresh each op, page cache warm (sandbox, not device): header/index validation, hydration, ComputeStats, parse and plan dominate; census kept small",
		opsPerSecond: 60, warmOps: 10,
		nodes: 2000, buckets: 50, stmts: []statement{triStatement(1)}, noCache: true,
	},
	{
		name: "ingest_durable_p1", kind: kindIngest,
		why:          "100 AddEdge + Publish on a 1-shard durable store, fsync per publish, compactions inside the run: graph publish and storage append/fsync/compaction dominate; no census",
		opsPerSecond: 700, warmOps: 50,
		nodes: 10000, shards: 1, compactAt: 512 << 10,
	},
	{
		name: "ingest_durable_p4", kind: kindIngest,
		why:          "the same op stream through 4 shards: ROADMAP item 2's acceptance is ops_per_s here against ingest_durable_p1, and group commit must cut fsyncs here without costing p1",
		opsPerSecond: 700, warmOps: 50,
		nodes: 10000, shards: 4, compactAt: 512 << 10,
	},
	{
		name: "ingest_with_readers", kind: kindMixed,
		why:          "no_cache census queries on a live engine beside an open-loop durable writer: pinned-snapshot tax, epoch-keyed cache invalidation and publish/compaction stalls under read load",
		opsPerSecond: 65, warmOps: 50,
		nodes: 2000, buckets: 50, stmts: []statement{triStatement(2)}, noCache: true,
		shards: 1, compactAt: 16 << 10,
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// ops is the operation count of a window nominally d long.
func (wl *workload) ops(d time.Duration) int {
	return max(1, int(float64(wl.opsPerSecond)*d.Seconds()))
}
