package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"egocensus/internal/graph"
)

func preparedTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := stressSeedGraph(t, false, 40, 90, 11)
	for i := 0; i < g.NumNodes(); i++ {
		kind := "even"
		if i%2 == 1 {
			kind = "odd"
		}
		g.SetNodeAttr(graph.NodeID(i), "kind", kind)
	}
	return g
}

const preparedSrc = `
PATTERN tri { ?A-?B; ?B-?C; ?C-?A; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE kind = $k
`

func TestPreparedMatchesDirectExecution(t *testing.T) {
	g := preparedTestGraph(t)

	direct := NewEngine(g)
	want, err := direct.Execute(`
PATTERN tri { ?A-?B; ?B-?C; ?C-?A; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE kind = 'odd'
`)
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine(g)
	p, err := e.Prepare(preparedSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Params(); !reflect.DeepEqual(got, []string{"k"}) {
		t.Fatalf("Params = %v", got)
	}
	got, err := p.Execute(map[string]string{"k": "odd"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want[0].Rows) {
		t.Fatalf("prepared rows differ from direct execution:\n%v\nvs\n%v", got.Rows, want[0].Rows)
	}
	if got.Stats.PlanCached || got.Stats.ResultCached {
		t.Fatalf("cold execution reported cache hits: %+v", got.Stats)
	}

	// Different binding: plan is warm, result is not.
	warm, err := p.Execute(map[string]string{"k": "even"})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.PlanCached {
		t.Fatal("second execution should hit the plan cache")
	}
	if warm.Stats.ResultCached {
		t.Fatal("different parameters must not hit the result cache")
	}

	// Same binding as the first call: whole table from the result cache.
	hit, err := p.Execute(map[string]string{"k": "odd"})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Stats.ResultCached {
		t.Fatal("repeat execution should hit the result cache")
	}
	if !reflect.DeepEqual(hit.Rows, want[0].Rows) {
		t.Fatal("cached rows differ")
	}

	cs := e.CacheStats()
	// exec1: plan miss; exec2: plan hit; exec3: result hit short-circuits
	// before the plan probe.
	if cs.Plan.Hits != 1 || cs.Plan.Misses != 1 {
		t.Fatalf("plan cache stats = %+v", cs.Plan)
	}
	if cs.Result.Hits != 1 || cs.Result.Misses != 2 || cs.Result.Entries != 2 {
		t.Fatalf("result cache stats = %+v", cs.Result)
	}
}

func TestPreparedParamValidation(t *testing.T) {
	e := NewEngine(preparedTestGraph(t))
	p, err := e.Prepare(preparedSrc)
	if err != nil {
		t.Fatal(err)
	}
	var pe *ParamError
	if _, err := p.Execute(nil); !errors.As(err, &pe) || len(pe.Missing) != 1 {
		t.Fatalf("missing binding: err = %v", err)
	}
	if _, err := p.Execute(map[string]string{"k": "odd", "extra": "x"}); !errors.As(err, &pe) || len(pe.Unknown) != 1 {
		t.Fatalf("unknown binding: err = %v", err)
	}
}

func TestPreparedPatternParams(t *testing.T) {
	g := graph.New(false)
	g.AddNodes(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	for i, kind := range []string{"hub", "gene", "gene", "protein"} {
		g.SetNodeAttr(graph.NodeID(i), "kind", kind)
	}
	e := NewEngine(g)
	p, err := e.Prepare(`
PATTERN typed_edge { ?A-?B; [?B.kind=$want]; }
SELECT ID, COUNTP(typed_edge, SUBGRAPH(ID, 1)) FROM nodes
`)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(params map[string]string) map[string]string {
		t.Helper()
		tab, err := p.Execute(params)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, row := range tab.Rows {
			out[row[0]] = row[1]
		}
		return out
	}
	if got := counts(map[string]string{"want": "gene"}); got["0"] != "2" {
		t.Fatalf("gene neighbors of hub = %s, want 2 (all: %v)", got["0"], got)
	}
	if got := counts(map[string]string{"want": "protein"}); got["0"] != "1" {
		t.Fatalf("protein neighbors of hub = %s, want 1 (all: %v)", got["0"], got)
	}
}

func TestPreparedEpochInvalidation(t *testing.T) {
	w := graph.NewShardedWriter(stressSeedGraph(t, false, 24, 50, 3), 1)
	e := NewEngineLiveSharded(w)
	p, err := e.Prepare(`
PATTERN tri { ?A-?B; ?B-?C; ?C-?A; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes
`)
	if err != nil {
		t.Fatal(err)
	}
	bind := map[string]string{}
	t1, err := p.Execute(bind)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p.Execute(bind)
	if err != nil {
		t.Fatal(err)
	}
	if !t2.Stats.ResultCached || t2.Epoch != t1.Epoch {
		t.Fatalf("same epoch should hit: cached=%v epochs %d/%d", t2.Stats.ResultCached, t1.Epoch, t2.Epoch)
	}

	// Publish: the epoch advances and both caches must miss.
	n := w.AddNode()
	w.SetLabel(n, "l0")
	if _, err := w.Publish(); err != nil {
		t.Fatal(err)
	}
	t3, err := p.Execute(bind)
	if err != nil {
		t.Fatal(err)
	}
	if t3.Epoch == t1.Epoch {
		t.Fatal("epoch did not advance after publish")
	}
	if t3.Stats.ResultCached || t3.Stats.PlanCached {
		t.Fatalf("stale-epoch caches served after publish: %+v", t3.Stats)
	}
	if len(t3.Rows) != len(t1.Rows)+1 {
		t.Fatalf("new node missing from fresh execution: %d rows vs %d", len(t3.Rows), len(t1.Rows))
	}
}

func TestPreparedExecOptions(t *testing.T) {
	e := NewEngine(preparedTestGraph(t))
	p, err := e.Prepare(preparedSrc)
	if err != nil {
		t.Fatal(err)
	}
	bind := map[string]string{"k": "odd"}
	if _, err := p.Execute(bind); err != nil {
		t.Fatal(err)
	}
	// NoResultCache forces a full run even with a warm result.
	tab, err := p.ExecuteContext(context.Background(), bind, ExecOptions{NoResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Stats.ResultCached {
		t.Fatal("NoResultCache execution served from result cache")
	}
	if !tab.Stats.PlanCached {
		t.Fatal("NoResultCache execution should still reuse the plan")
	}
	// A per-execution limit override surfaces as a LimitError.
	var le *LimitError
	_, err = p.ExecuteContext(context.Background(), bind,
		ExecOptions{NoResultCache: true, Limits: &Limits{MaxResultRows: 1}})
	if !errors.As(err, &le) {
		t.Fatalf("limit override: err = %v", err)
	}
}

func TestPreparedExplain(t *testing.T) {
	e := NewEngine(preparedTestGraph(t))
	p, err := e.Prepare(`
PATTERN tri2 { ?A-?B; ?B-?C; ?C-?A; }
EXPLAIN SELECT ID, COUNTP(tri2, SUBGRAPH(ID, 1)) FROM nodes WHERE kind = $k
`)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := p.Execute(map[string]string{"k": "odd"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 || tab.Header[0] != "plan" {
		t.Fatalf("explain table malformed: %+v", tab)
	}
	// EXPLAIN never populates the result cache.
	if _, err := p.Execute(map[string]string{"k": "odd"}); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Result.Entries != 0 {
		t.Fatalf("explain populated result cache: %+v", st.Result)
	}
}

func TestPreparedRejectsMultipleSelects(t *testing.T) {
	e := NewEngine(preparedTestGraph(t))
	_, err := e.Prepare(`
PATTERN a { ?A; }
SELECT ID, COUNTP(a, SUBGRAPH(ID, 1)) FROM nodes;
SELECT ID, COUNTP(a, SUBGRAPH(ID, 2)) FROM nodes
`)
	if err == nil {
		t.Fatal("Prepare accepted two SELECTs")
	}
}

// TestStressPreparedConcurrentLiveGraph shares one engine and one
// Prepared across goroutines over a mutating live graph: every execution
// must be internally consistent with the epoch it reports, and cache hits
// must return the same rows a fresh run over that epoch produces. CI runs
// the Stress tests with -race -count=3.
func TestStressPreparedConcurrentLiveGraph(t *testing.T) {
	const (
		readers    = 6
		rounds     = 12
		maxBatches = 120
	)
	w := graph.NewShardedWriter(stressSeedGraph(t, false, 24, 50, 5), 1)
	e := NewEngineLiveSharded(w)
	p, err := e.Prepare(`
PATTERN tri { ?A-?B; ?B-?C; ?C-?A; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE kind = $k
`)
	if err != nil {
		t.Fatal(err)
	}

	var stop sync.WaitGroup
	done := make(chan struct{})
	stop.Add(1)
	go func() {
		defer stop.Done()
		for i := 0; i < maxBatches; i++ {
			select {
			case <-done:
				return
			default:
			}
			n := w.AddNode()
			w.SetLabel(n, "l0")
			w.SetNodeAttr(n, "kind", fmt.Sprintf("k%d", i%3))
			a := graph.NodeID(i % int(n))
			if a != n {
				w.AddEdge(a, n)
			}
			if _, err := w.Publish(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bind := map[string]string{"k": fmt.Sprintf("k%d", r%3)}
			for i := 0; i < rounds; i++ {
				tab, err := p.ExecuteContext(context.Background(), bind, ExecOptions{})
				if err != nil {
					t.Errorf("reader %d round %d: %v", r, i, err)
					return
				}
				// Reference: a fresh uncached run over the same bindings.
				// Epochs may differ (the writer keeps publishing), so only
				// compare when the reference lands on the same version.
				ref, err := p.ExecuteContext(context.Background(), bind, ExecOptions{NoResultCache: true})
				if err != nil {
					t.Errorf("reader %d round %d (reference): %v", r, i, err)
					return
				}
				if ref.Epoch == tab.Epoch && !reflect.DeepEqual(ref.Rows, tab.Rows) {
					t.Errorf("reader %d round %d epoch %d: cached rows diverge from fresh run", r, i, tab.Epoch)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	stop.Wait()

	cs := e.CacheStats()
	if cs.Plan.Hits+cs.Plan.Misses == 0 || cs.Result.Hits+cs.Result.Misses == 0 {
		t.Fatalf("caches never probed: %+v", cs)
	}
}
