package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/pattern"
	"egocensus/internal/storage"
)

// The Stress tests exercise the MVCC contract under the race detector:
// census queries run concurrently with a mutating writer, and every query
// must observe an internally consistent pinned snapshot — its counts must
// equal a from-scratch census over an independent deep copy of that
// snapshot's frozen view. CI runs them with -race -count=3.

func stressSeedGraph(t *testing.T, directed bool, nodes, edges int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(directed)
	g.AddNodes(nodes)
	for i := 0; i < edges; i++ {
		a := graph.NodeID(rng.Intn(nodes))
		b := graph.NodeID(rng.Intn(nodes))
		if a != b {
			g.AddEdge(a, b)
		}
	}
	gen.AssignLabels(g, 2, seed+1)
	return g
}

func TestStressConcurrentCensusWithWriter(t *testing.T) {
	const (
		nodes      = 30
		queries    = 4
		rounds     = 10
		maxBatches = 150 // bound the graph's growth so reference censuses stay cheap
	)
	spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1}
	labeled := Spec{Pattern: pattern.Clique("lclq", 3, []string{"l0", "l0", "l1"}), K: 1}

	w := graph.NewShardedWriter(stressSeedGraph(t, false, nodes, 60, 1), 1)
	var stop atomic.Bool
	var readers, mutator sync.WaitGroup

	// Mutator: interleaved AddEdge / SetLabel / SetNodeAttr, publishing
	// small batches as fast as the readers can pin them.
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		rng := rand.New(rand.NewSource(2))
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
				// From-scratch reference over an independent deep copy of
				// the same pinned version.
				want, err := Count(snap.Graph().Clone(), sp, alg, Options{Seed: 7})
				if err != nil {
					t.Errorf("query %d round %d (reference): %v", q, r, err)
					return
				}
				if got.NumMatches != want.NumMatches || len(got.Counts) != len(want.Counts) {
					t.Errorf("query %d round %d epoch %d: matches %d vs %d, nodes %d vs %d",
						q, r, snap.Epoch(), got.NumMatches, want.NumMatches, len(got.Counts), len(want.Counts))
					return
				}
				for n := range got.Counts {
					if got.Counts[n] != want.Counts[n] {
						t.Errorf("query %d round %d epoch %d: node %d count %d, from-scratch %d",
							q, r, snap.Epoch(), n, got.Counts[n], want.Counts[n])
						return
					}
				}
			}
		}(q)
	}

	// The readers run a fixed round budget; the mutator loops until they
	// are done.
	readers.Wait()
	stop.Store(true)
	mutator.Wait()
}

func TestStressMaintainerFollowsWriter(t *testing.T) {
	const nodes = 24
	spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1}

	w := graph.NewShardedWriter(stressSeedGraph(t, false, nodes, 30, 3), 1)
	snap0 := w.Snapshot()

	var snaps sync.Map // epoch -> *graph.Snapshot
	snaps.Store(snap0.Epoch(), snap0)
	w.Subscribe(func(s *graph.Snapshot, _ graph.Delta) { snaps.Store(s.Epoch(), s) })

	mt := NewMaintainer(snap0)
	if err := mt.Register("clq3", spec, Options{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	stopMt := mt.Attach(w)
	defer stopMt()

	var wg sync.WaitGroup
	var published atomic.Uint64

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 40; i++ {
			for j := 0; j < 2; j++ {
				switch rng.Intn(6) {
				case 0:
					w.AddNode()
				case 1:
					// Label churn forces the maintainer's rebuild path.
					w.SetLabel(graph.NodeID(rng.Intn(w.Stats().Nodes)), fmt.Sprintf("l%d", rng.Intn(2)))
				default:
					a := graph.NodeID(rng.Intn(w.Stats().Nodes))
					b := graph.NodeID(rng.Intn(w.Stats().Nodes))
					if a != b {
						w.AddEdge(a, b)
					}
				}
			}
			s, err := w.Publish()
			if err != nil {
				t.Error(err)
				return
			}
			published.Store(s.Epoch())
		}
	}()

	// Verifier: repeatedly snapshot the maintained counts (atomically with
	// their epoch) and compare with a from-scratch census on the pinned
	// snapshot of exactly that epoch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 12; r++ {
			counts, epoch, err := mt.Counts("clq3")
			if err != nil {
				t.Error(err)
				return
			}
			sv, ok := snaps.Load(epoch)
			if !ok {
				t.Errorf("no recorded snapshot for epoch %d", epoch)
				return
			}
			want, err := CountSnapshot(sv.(*graph.Snapshot), spec, PTBas, Options{Seed: 7})
			if err != nil {
				t.Error(err)
				return
			}
			if len(counts) != len(want.Counts) {
				t.Errorf("epoch %d: maintained %d nodes, census %d", epoch, len(counts), len(want.Counts))
				return
			}
			for n := range counts {
				if counts[n] != want.Counts[n] {
					t.Errorf("epoch %d node %d: maintained %d, from-scratch %d", epoch, n, counts[n], want.Counts[n])
					return
				}
			}
		}
	}()

	wg.Wait()

	// Final convergence: catch up to the last published epoch and compare
	// exactly.
	last := published.Load()
	if ep, err := mt.CatchUp(last); err != nil || ep < last {
		t.Fatalf("catch-up: epoch %d err %v (want %d)", ep, err, last)
	}
	counts, epoch, err := mt.Counts("clq3")
	if err != nil || epoch < last {
		t.Fatalf("counts at %d (err %v), want >= %d", epoch, err, last)
	}
	sv, _ := snaps.Load(epoch)
	want, err := CountSnapshot(sv.(*graph.Snapshot), spec, PTBas, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for n := range counts {
		if counts[n] != want.Counts[n] {
			t.Fatalf("final epoch %d node %d: maintained %d, from-scratch %d", epoch, n, counts[n], want.Counts[n])
		}
	}
}

// TestStressMaintainerOnDynamicStore attaches a maintainer to a durable
// store's writer — at one shard and at four — and checks it converges to
// a from-scratch census at the final published epoch.
func TestStressMaintainerOnDynamicStore(t *testing.T) {
	spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("P%d", shards), func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "g.egoc")
			ds, err := storage.CreateDynamicSharded(base, stressSeedGraph(t, false, 24, 30, 8), shards)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			w := ds.Writer()
			mt := NewMaintainer(ds.Snapshot())
			if err := mt.Register("clq3", spec, Options{Seed: 7}); err != nil {
				t.Fatal(err)
			}
			stop := mt.Attach(w)
			defer stop()

			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 30; i++ {
				nodes := w.Stats().Nodes
				if rng.Intn(3) == 0 {
					w.SetLabel(w.AddNode(), fmt.Sprintf("l%d", rng.Intn(2)))
				}
				for j := 0; j < 3; j++ {
					if a, b := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes)); a != b {
						w.AddEdge(a, b)
					}
				}
				if _, err := w.Publish(); err != nil {
					t.Fatal(err)
				}
			}

			final := ds.Snapshot()
			if ep, err := mt.CatchUp(final.Epoch()); err != nil || ep != final.Epoch() {
				t.Fatalf("catch-up: epoch %d err %v (want %d)", ep, err, final.Epoch())
			}
			counts, epoch, err := mt.Counts("clq3")
			if err != nil || epoch != final.Epoch() {
				t.Fatalf("counts at epoch %d (err %v), want %d", epoch, err, final.Epoch())
			}
			want, err := CountSnapshot(final, spec, PTBas, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(counts, want.Counts) {
				t.Fatalf("epoch %d: maintained counts diverge from the from-scratch census", epoch)
			}
		})
	}
}

func TestStressLiveEngineQueriesDuringIngest(t *testing.T) {
	w := graph.NewShardedWriter(stressSeedGraph(t, false, 30, 45, 5), 1)
	e := NewEngineLiveSharded(w)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(6))
		for i := 0; !stop.Load() && i < 120; i++ {
			a := graph.NodeID(rng.Intn(w.Stats().Nodes))
			b := graph.NodeID(rng.Intn(w.Stats().Nodes))
			if a != b {
				w.AddEdge(a, b)
			}
			if rng.Intn(4) == 0 {
				n := w.AddNode()
				w.SetLabel(n, "l0")
			}
			if _, err := w.Publish(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const script = `PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes`
	var lastEpoch uint64
	for r := 0; r < 8; r++ {
		tables, err := e.Execute(script)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("round %d: %v", r, err)
		}
		for _, tb := range tables {
			if tb.Epoch < lastEpoch {
				t.Errorf("round %d: epoch went backwards %d -> %d", r, lastEpoch, tb.Epoch)
			}
			lastEpoch = tb.Epoch
		}
		// Redefining the pattern next round would be an error; drop it.
		e2 := NewEngineLiveSharded(w)
		e = e2
	}
	stop.Store(true)
	wg.Wait()
}

// TestStressConcurrentColdHydration races the first queries on engines
// over freshly opened disk stores: planning statistics and the lazy
// materialization must each happen once, whichever query gets there
// first, and every query must return the in-memory engine's table.
func TestStressConcurrentColdHydration(t *testing.T) {
	const (
		stores  = 3
		clients = 8
		script  = `SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes`
	)
	tri := pattern.Clique("tri", 3, nil)
	g := gen.PreferentialAttachment(400, 3, 21)
	gen.AssignLabels(g, 3, 22)
	path := filepath.Join(t.TempDir(), "g.egoc")
	if err := storage.Save(path, g); err != nil {
		t.Fatal(err)
	}
	ref := NewEngine(g)
	if err := ref.DefinePattern(tri); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Execute(script)
	if err != nil {
		t.Fatal(err)
	}

	for s := 0; s < stores; s++ {
		st, err := storage.Open(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngineFromSource(st)
		if err := e.DefinePattern(tri); err != nil {
			t.Fatal(err)
		}
		got := make([][]*Table, clients)
		errs := make([]error, clients)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			go func(c int) {
				defer wg.Done()
				<-start
				got[c], errs[c] = e.Execute(script)
			}(c)
		}
		close(start)
		wg.Wait()
		st.Close()
		for c := range got {
			if errs[c] != nil {
				t.Fatalf("store %d client %d: %v", s, c, errs[c])
			}
			if !reflect.DeepEqual(got[c][0].Rows, want[0].Rows) {
				t.Fatalf("store %d client %d: rows diverge from the in-memory engine", s, c)
			}
		}
	}
}

// TestStressParallelGlobalMatch checks that splitting the global match's
// root candidates over workers changes nothing: Workers 1, 2 and 4 give
// bit-identical match lists and embedding counts, and all six algorithms
// give bit-identical censuses at every worker count.
func TestStressParallelGlobalMatch(t *testing.T) {
	und := gen.PreferentialAttachment(200, 4, 26)
	gen.AssignLabels(und, 3, 27)
	small := gen.PreferentialAttachment(80, 3, 29) // PT-OPT clusters squares quadratically
	dir := stressSeedGraph(t, true, 120, 500, 28)
	square := pattern.Square("sqr", nil)
	if err := square.AddSubpattern("diag", []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	cyc := pattern.New("cyc")
	for _, v := range []string{"A", "B", "C"} {
		cyc.MustAddNode(v, "")
	}
	cyc.MustAddEdge(0, 1, true, false)
	cyc.MustAddEdge(1, 2, true, false)
	cyc.MustAddEdge(2, 0, true, false)
	cases := []struct {
		g    *graph.Graph
		spec Spec
	}{
		{und, Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1}},
		{und, Spec{Pattern: pattern.Clique("clq4", 4, nil), K: 1}},
		{und, Spec{Pattern: pattern.Clique("lclq", 3, []string{"l0", "l1", ""}), K: 2}},
		{small, Spec{Pattern: square, Subpattern: "diag", K: 1}},
		{dir, Spec{Pattern: cyc, K: 1}},
	}
	for _, c := range cases {
		name := c.spec.Pattern.Name
		want, wantEmb, err := globalMatchesGuarded(c.g, c.spec, Options{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref := referenceMatches(c.g, c.spec); len(ref) != len(want) || len(want) == 0 {
			t.Fatalf("%s: %d matches, reference %d (want a non-empty instance)", name, len(want), len(ref))
		}
		var wantCounts []int64
		for _, workers := range []int{1, 2, 4} {
			opt := Options{Workers: workers, Seed: 1}
			got, gotEmb, err := globalMatchesGuarded(c.g, c.spec, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || gotEmb != wantEmb {
				t.Fatalf("%s: match list at %d workers differs from 1 worker", name, workers)
			}
			for _, alg := range Algorithms {
				res, err := Count(c.g, c.spec, alg, opt)
				if err != nil {
					t.Fatal(err)
				}
				if wantCounts == nil {
					wantCounts = res.Counts
				} else if !reflect.DeepEqual(res.Counts, wantCounts) {
					t.Fatalf("%s: %s at %d workers differs", name, alg, workers)
				}
			}
		}
	}
}

// TestStressRepricedSharedPlan runs one prepared statement concurrently
// with bindings that select 2 nodes and every node. All executions share
// one cached plan; each must run the driver the plan re-prices at its
// own observed focal count, answer exactly like forced ND-BAS, and leave
// the shared plan as it found it.
func TestStressRepricedSharedPlan(t *testing.T) {
	const rounds = 6
	g := gen.PreferentialAttachment(300, 5, 3)
	for n := 0; n < g.NumNodes(); n++ {
		g.SetNodeAttr(graph.NodeID(n), "grp", "all")
	}
	g.SetNodeAttr(0, "tier", "two")
	g.SetNodeAttr(1, "tier", "two")
	e := NewEngine(g)
	e.Opt.Workers = 2
	stmt, err := e.Prepare(`PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE tier = $b OR grp = $b`)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := stmt.Execute(map[string]string{"b": "two"})
	if err != nil {
		t.Fatal(err)
	}
	phys := warm.Plan
	explain := phys.Explain()
	choices := fmt.Sprintf("%+v batched=%v", phys.Choices, phys.Batched)

	type binding struct {
		b     string
		alg   Algorithm
		count map[graph.NodeID]int64
	}
	var bindings []binding
	for _, b := range []struct {
		name  string
		focal []graph.NodeID
	}{{"two", []graph.NodeID{0, 1}}, {"all", nil}} {
		spec := Spec{Pattern: pattern.Clique("tri", 3, nil), K: 1, Focal: b.focal}
		ref, err := Count(g, spec, NDBas, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		count := map[graph.NodeID]int64{}
		for _, n := range spec.focalList(g) {
			count[n] = ref.Counts[n]
		}
		algs, _ := phys.Reprice(len(count))
		bindings = append(bindings, binding{b.name, Algorithm(algs[0]), count})
	}
	if bindings[0].alg == bindings[1].alg {
		t.Fatalf("both bindings re-price to %s; the test needs a crossover", bindings[0].alg)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				want := bindings[(w+r)%len(bindings)]
				tab, err := stmt.ExecuteContext(context.Background(), map[string]string{"b": want.b}, ExecOptions{NoResultCache: true})
				if err != nil {
					t.Error(err)
					return
				}
				if tab.Plan != phys {
					t.Errorf("$b=%s: executed a plan other than the cached one", want.b)
				}
				if tab.Algorithm != want.alg {
					t.Errorf("$b=%s: ran %s, re-pricing chose %s", want.b, tab.Algorithm, want.alg)
				}
				if len(tab.TypedRows) != len(want.count) {
					t.Errorf("$b=%s: %d rows want %d", want.b, len(tab.TypedRows), len(want.count))
				}
				for _, row := range tab.TypedRows {
					if c, ok := want.count[row.Focal[0]]; !ok || c != row.Count {
						t.Errorf("$b=%s: node %d counts %d, forced ND-BAS %d", want.b, row.Focal[0], row.Count, c)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if phys.Explain() != explain || fmt.Sprintf("%+v batched=%v", phys.Choices, phys.Batched) != choices {
		t.Fatal("concurrent executions modified the cached plan")
	}
}
