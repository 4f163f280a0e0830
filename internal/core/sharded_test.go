package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"egocensus/internal/graph"
	"egocensus/internal/pattern"
	"egocensus/internal/plan"
)

// TestStressShardedCensusDuringIngest is the sharded twin of
// TestStressConcurrentCensusWithWriter: census queries run against
// pinned snapshots while four shard lanes ingest concurrently, and every
// result must match a from-scratch census on an independent copy.
func TestStressShardedCensusDuringIngest(t *testing.T) {
	const (
		shards     = 4
		nodes      = 30
		queries    = 4
		rounds     = 8
		maxBatches = 120
	)
	spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1}
	labeled := Spec{Pattern: pattern.Clique("lclq", 3, []string{"l0", "l0", "l1"}), K: 1}

	w := graph.NewShardedWriter(stressSeedGraph(t, false, nodes, 60, 8), shards)
	var stop atomic.Bool
	var readers, mutator sync.WaitGroup

	mutator.Add(1)
	go func() {
		defer mutator.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; !stop.Load() && i < maxBatches; i++ {
			for j := 0; j < 3; j++ {
				switch rng.Intn(4) {
				case 0:
					n := w.AddNode()
					w.SetLabel(n, fmt.Sprintf("l%d", rng.Intn(2)))
				case 1:
					w.SetLabel(graph.NodeID(rng.Intn(w.Stats().Nodes)), fmt.Sprintf("l%d", rng.Intn(2)))
				case 2:
					w.SetNodeAttr(graph.NodeID(rng.Intn(w.Stats().Nodes)), "touch", fmt.Sprint(i))
				default:
					a := graph.NodeID(rng.Intn(w.Stats().Nodes))
					b := graph.NodeID(rng.Intn(w.Stats().Nodes))
					if a != b {
						w.AddEdge(a, b)
					}
				}
			}
			if _, err := w.Publish(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for q := 0; q < queries; q++ {
		readers.Add(1)
		go func(q int) {
			defer readers.Done()
			alg := NDBas
			sp := spec
			if q%2 == 1 {
				alg = PTOpt
				sp = labeled
			}
			for r := 0; r < rounds; r++ {
				snap := w.Snapshot()
				got, err := CountSnapshot(snap, sp, alg, Options{Seed: 7})
				if err != nil {
					t.Errorf("query %d round %d: %v", q, r, err)
					return
				}
				want, err := Count(snap.Graph().Clone(), sp, alg, Options{Seed: 7})
				if err != nil {
					t.Errorf("query %d round %d (reference): %v", q, r, err)
					return
				}
				if got.NumMatches != want.NumMatches || !reflect.DeepEqual(got.Counts, want.Counts) {
					t.Errorf("query %d round %d epoch %d: sharded census diverges (matches %d vs %d)",
						q, r, snap.Epoch(), got.NumMatches, want.NumMatches)
					return
				}
			}
		}(q)
	}

	readers.Wait()
	stop.Store(true)
	mutator.Wait()
}

// TestShardedEngineMatchesUnsharded checks a live engine over a 4-shard
// writer returns the same rows as a plain engine over the same graph.
func TestShardedEngineMatchesUnsharded(t *testing.T) {
	g := stressSeedGraph(t, false, 30, 60, 12)
	e := NewEngineLiveSharded(graph.NewShardedWriter(g.Clone(), 4))
	e.Opt.Workers = 4
	const script = `PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes`
	want, err := NewEngine(g).Execute(script)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(script)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0].Rows, want[0].Rows) {
		t.Fatal("sharded engine rows differ from unsharded engine")
	}
}

// TestShardedWriterSourceStats checks a 4-shard source's statistics are
// exactly the whole-graph ComputeStats of the snapshot, memoized per epoch.
func TestShardedWriterSourceStats(t *testing.T) {
	w := graph.NewShardedWriter(stressSeedGraph(t, false, 50, 150, 14), 4)
	src := plan.FromShardedWriter(w)
	snap := src.Snapshot()
	got, err := src.StatsAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ComputeStats(snap.Graph())
	want.Epoch = snap.Epoch()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded stats diverge:\ngot  %+v\nwant %+v", got, want)
	}
	again, err := src.StatsAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Fatal("same-epoch stats were recomputed, not memoized")
	}

	// A publish advances the epoch and refreshes the memo.
	w.AddNodes(3)
	if _, err := w.Publish(); err != nil {
		t.Fatal(err)
	}
	snap2 := src.Snapshot()
	got2, err := src.StatsAt(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Epoch != snap2.Epoch() || got2.Nodes != want.Nodes+3 {
		t.Fatalf("post-publish stats: %+v", got2)
	}
}

// TestPreparedConcurrentPrepareStampede prepares the same statement from
// many goroutines at once: every caller must get a working Prepared, and
// the plan cache must converge on exactly one entry for the fingerprint.
func TestPreparedConcurrentPrepareStampede(t *testing.T) {
	e := NewEngine(preparedTestGraph(t))
	if err := e.DefinePattern(pattern.Clique("tri", 3, nil)); err != nil {
		t.Fatal(err)
	}
	const src = `SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE kind = $k`

	const callers = 8
	var wg sync.WaitGroup
	rows := make([][][]string, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p, err := e.Prepare(src)
			if err != nil {
				errs[c] = err
				return
			}
			tb, err := p.Execute(map[string]string{"k": "odd"})
			if err != nil {
				errs[c] = err
				return
			}
			rows[c] = tb.Rows
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	for c := 1; c < callers; c++ {
		if !reflect.DeepEqual(rows[c], rows[0]) {
			t.Fatalf("caller %d rows diverge from caller 0", c)
		}
	}
	if n := e.plans().Len(); n != 1 {
		t.Fatalf("plan cache holds %d entries after stampede, want 1", n)
	}
}
