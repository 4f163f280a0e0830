package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/pattern"
)

// The cancellation graph is sized so that every census driver runs for
// many seconds on the triangle census below — a cancel fired shortly after
// the start always lands mid-evaluation. It is built once and shared
// read-only across the tests in this file.
var (
	cancelGraphOnce sync.Once
	cancelGraph     *graph.Graph
)

func cancellationGraph() *graph.Graph {
	cancelGraphOnce.Do(func() {
		cancelGraph = gen.PreferentialAttachment(4000, 10, 1)
		prepare(cancelGraph)
	})
	return cancelGraph
}

func triangleSpec() Spec {
	return Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 2}
}

// cancelBound is how long after the cancel a driver may keep running: one
// epoch of wind-down per worker plus scheduling slack.
const cancelBound = 250 * time.Millisecond

// assertCanceled checks the typed-error contract of a canceled evaluation:
// a *CanceledError unwrapping to context.Canceled, returned within
// cancelBound of the cancel.
func assertCanceled(t *testing.T, err error, start time.Time, delay time.Duration) *CanceledError {
	t.Helper()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("evaluation finished (in %v) instead of observing the cancel at %v", elapsed, delay)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T (%v), want *CanceledError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false (cause %v)", ce.Cause)
	}
	if budget := delay + cancelBound; elapsed > budget {
		t.Fatalf("returned %v after the cancel, want <= %v", elapsed-delay, cancelBound)
	}
	return ce
}

func TestCancellationAllAlgorithms(t *testing.T) {
	g := cancellationGraph()
	spec := triangleSpec()
	const delay = 100 * time.Millisecond
	for _, alg := range Algorithms {
		t.Run(string(alg), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(delay, cancel)
			start := time.Now()
			_, err := CountContext(ctx, g, spec, alg, Options{Workers: 2})
			ce := assertCanceled(t, err, start, delay)
			if ce.Progress.Elapsed <= 0 {
				t.Errorf("progress snapshot missing elapsed time: %+v", ce.Progress)
			}
		})
	}
}

func TestCancellationPairwise(t *testing.T) {
	g := cancellationGraph()
	const delay = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		mode PairMode
	}{
		{"INTERSECTION", Intersection},
		{"UNION", Union},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := PairSpec{Spec: triangleSpec(), Mode: tc.mode}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(delay, cancel)
			start := time.Now()
			_, err := CountPairsContext(ctx, g, spec, PTOpt, Options{Workers: 2})
			assertCanceled(t, err, start, delay)
		})
	}
}

func TestDeadlineLimit(t *testing.T) {
	g := cancellationGraph()
	const deadline = 50 * time.Millisecond
	opt := Options{Workers: 2, Limits: Limits{Deadline: deadline}}
	start := time.Now()
	_, err := Count(g, triangleSpec(), NDBas, opt)
	elapsed := time.Since(start)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T (%v), want *CanceledError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, context.DeadlineExceeded) = false (cause %v)", ce.Cause)
	}
	if budget := deadline + cancelBound; elapsed > budget {
		t.Fatalf("returned %v after the deadline, want <= %v", elapsed-deadline, cancelBound)
	}
}

func TestMaxMatchesLimit(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 3)
	opt := Options{Limits: Limits{MaxMatches: 5}}
	_, err := Count(g, triangleSpec(), PTBas, opt)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %T (%v), want *LimitError", err, err)
	}
	if le.Limit != "max-matches" {
		t.Fatalf("limit = %q, want max-matches", le.Limit)
	}
	if le.Actual <= le.Value {
		t.Fatalf("actual %d should exceed value %d", le.Actual, le.Value)
	}
}

func TestMemoryBudgetLimit(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 3)
	opt := Options{Limits: Limits{MemoryBudget: 64}}
	_, err := Count(g, triangleSpec(), PTBas, opt)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %T (%v), want *LimitError", err, err)
	}
	if le.Limit != "memory-budget" {
		t.Fatalf("limit = %q, want memory-budget", le.Limit)
	}
}

func TestEngineRowLimitPartialTable(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 3)
	e := NewEngine(g)
	e.Opt.Limits = Limits{MaxResultRows: 5}
	_, err := e.Execute(`
		PATTERN t { ?A-?B; ?B-?C; ?A-?C; }
		SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes;`)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %T (%v), want *LimitError", err, err)
	}
	if le.Limit != "max-result-rows" {
		t.Fatalf("limit = %q, want max-result-rows", le.Limit)
	}
	if le.PartialTable == nil {
		t.Fatal("no partial table attached")
	}
	if n := len(le.PartialTable.Rows); n == 0 || n > 5 {
		t.Fatalf("partial table has %d rendered rows, want 1..5", n)
	}
}

func TestEngineCancelTypedError(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 2)
	e := NewEngine(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before execution even starts
	_, err := e.ExecuteContext(ctx, `
		PATTERN t { ?A-?B; ?B-?C; ?A-?C; }
		SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes;`)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T (%v), want *CanceledError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false (cause %v)", ce.Cause)
	}
}

// TestEnginePanicToInternalError simulates a bug inside the global match,
// which runs on the coordinating goroutine, and checks that runPipeline
// converts the panic into an *InternalError with its context.
func TestEnginePanicToInternalError(t *testing.T) {
	globalMatchHook = func() { panic("boom: injected matcher failure") }
	t.Cleanup(func() { globalMatchHook = nil })
	g := gen.ErdosRenyi(50, 120, 2)
	e := NewEngine(g)
	e.Alg = PTBas
	_, err := e.Execute(`
		PATTERN t { ?A-?B; ?B-?C; ?A-?C; }
		SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes;`)
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T (%v), want *InternalError", err, err)
	}
	if ie.Panic != "boom: injected matcher failure" {
		t.Fatalf("panic value = %v", ie.Panic)
	}
	if ie.Query == "" || ie.Plan == "" {
		t.Fatalf("internal error missing context: query=%q plan=%q", ie.Query, ie.Plan)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("internal error missing stack")
	}
}

func TestWorkerPanicForwarded(t *testing.T) {
	cost := func(i int) int64 { return int64(1 + i%5) }
	for _, run := range []struct {
		name string
		pool func(body func(i int))
	}{
		{"parallelFor", func(body func(i int)) { parallelFor(nil, 4, 100, nil, func(_, i int) { body(i) }) }},
		{"parallelMerge", func(body func(i int)) {
			parallelMerge(nil, 4, 100, cost, make([]int64, 1), func(_ int, _ []int64, i int) { body(i) })
		}},
	} {
		t.Run(run.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("worker panic was not rethrown on the coordinating goroutine")
				}
				wp, ok := r.(*workerPanic)
				if !ok {
					t.Fatalf("recovered %T (%v), want *workerPanic", r, r)
				}
				if wp.val != "worker boom" {
					t.Fatalf("panic value = %v", wp.val)
				}
				if len(wp.stack) == 0 {
					t.Fatal("worker panic lost its stack")
				}
			}()
			run.pool(func(i int) {
				if i == 17 {
					panic("worker boom")
				}
			})
		})
	}
}
