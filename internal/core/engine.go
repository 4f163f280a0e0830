package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/pattern"
	"egocensus/internal/plan"
)

// Engine is the session facade over the query pipeline's four layers: it
// parses census scripts (internal/lang), builds and optimizes logical
// plans against a statistics snapshot (internal/plan), compiles them to
// physical operator pipelines over the census drivers (operator.go), and
// renders result tables (render.go). It keeps a pattern catalog across
// Execute calls.
//
// The execution pipeline itself is stateless: every query copies what it
// needs out of the engine up front, so one engine serves any number of
// concurrent Execute/Run/Prepared calls. The configuration fields (G,
// Alg, Opt, Seed, Source) are read at query time without synchronization
// — set them before sharing the engine and treat them as frozen after.
type Engine struct {
	// G is the database graph. Engines built from a Source leave it nil
	// until a query executes (see Graph); planning and EXPLAIN need only
	// the statistics snapshot.
	G *graph.Graph
	// Alg forces an algorithm for every query; empty lets the cost-based
	// optimizer choose per query from the statistics snapshot.
	Alg Algorithm
	// Opt tunes the algorithms.
	Opt Options
	// Seed drives the RND() sampling predicate deterministically.
	Seed int64
	// Source supplies planner statistics and lazily hydrates the graph.
	Source plan.Source

	// mu guards the mutable session state below: the pattern catalog, the
	// memoized statistics, lazy graph hydration, and cache construction.
	mu      sync.Mutex
	stats   *graph.Stats
	catalog map[string]*pattern.Pattern

	// planCache holds compiled plans for prepared queries, keyed by
	// (fingerprint, statistics epoch, engine config); resultCache holds
	// whole result tables for prepared executions, keyed additionally by
	// the bound parameters and seed. Both are lazily built with default
	// capacities; see ConfigureCaches.
	planCache   *plan.Cache
	resultCache *resultCache
}

// Default cache capacities (see ConfigureCaches).
const (
	DefaultPlanCacheEntries = 256
	DefaultResultCacheBytes = 64 << 20
)

// NewEngine returns an engine over an in-memory graph.
func NewEngine(g *graph.Graph) *Engine {
	return &Engine{G: g, Source: plan.FromGraph(g), catalog: map[string]*pattern.Pattern{}}
}

// NewEngineFromSource returns an engine that plans against src's
// statistics and hydrates the full graph only when a query actually
// executes — EXPLAIN against a disk store never pays materialization.
func NewEngineFromSource(src plan.Source) *Engine {
	return &Engine{Source: src, catalog: map[string]*pattern.Pattern{}}
}

// NewEngineLiveSharded returns an engine over a mutating graph: each
// query pins the writer's latest published snapshot for its whole run
// (planning, EXPLAIN statistics, and execution all observe one epoch,
// reported as Table.Epoch), while the writer keeps publishing
// concurrently. Queries never block mutation and vice versa. The shard
// count only routes the writer's ingest lanes and log segments: planning
// statistics and census scheduling are the same at every shard count.
func NewEngineLiveSharded(w *graph.ShardedWriter) *Engine {
	return NewEngineFromSource(plan.FromShardedWriter(w))
}

// ConfigureCaches sizes the prepared-query caches: planEntries bounds the
// plan cache entry count and resultBytes budgets the result cache
// (approximate bytes of cached tables). Zero or negative disables the
// respective cache. Call before sharing the engine across goroutines.
func (e *Engine) ConfigureCaches(planEntries int, resultBytes int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.planCache = plan.NewCache(planEntries)
	e.resultCache = newResultCache(resultBytes)
}

// plans returns the plan cache, building it at the default capacity on
// first use.
func (e *Engine) plans() *plan.Cache {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.planCache == nil {
		e.planCache = plan.NewCache(DefaultPlanCacheEntries)
	}
	return e.planCache
}

// results returns the result cache, building it at the default budget on
// first use.
func (e *Engine) results() *resultCache {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.resultCache == nil {
		e.resultCache = newResultCache(DefaultResultCacheBytes)
	}
	return e.resultCache
}

// CacheStats reports the prepared-query cache counters.
type CacheStats struct {
	Plan   plan.CacheStats  `json:"plan"`
	Result ResultCacheStats `json:"result"`
}

// CacheStats returns point-in-time counters for both caches.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{Plan: e.plans().Stats(), Result: e.results().Stats()}
}

// graphField reads e.G under the session lock: lazy hydration writes it
// concurrently with queries on a shared engine.
func (e *Engine) graphField() *graph.Graph {
	e.mu.Lock()
	g := e.G
	e.mu.Unlock()
	return g
}

// snapshotSource returns the engine's source as a SnapshotSource when it
// is versioned and no explicit graph pins the engine to one version.
func (e *Engine) snapshotSource() (plan.SnapshotSource, bool) {
	if e.graphField() != nil {
		return nil, false
	}
	ss, ok := e.Source.(plan.SnapshotSource)
	return ss, ok
}

// Graph returns the database graph, hydrating it from the Source on
// first use. For a versioned source this is the latest published
// snapshot's graph and is intentionally NOT cached on the engine —
// each call observes the current version.
func (e *Engine) Graph() (*graph.Graph, error) {
	if g := e.graphField(); g != nil {
		return g, nil
	}
	if e.Source == nil {
		return nil, fmt.Errorf("engine: no graph and no source")
	}
	g, err := e.Source.Graph()
	if err != nil {
		return nil, err
	}
	if _, live := e.Source.(plan.SnapshotSource); !live {
		// Hydrate once; a concurrent first query may have won the race.
		e.mu.Lock()
		if e.G == nil {
			e.G = g
		}
		g = e.G
		e.mu.Unlock()
	}
	return g, nil
}

// Stats returns the statistics snapshot the optimizer plans against,
// memoized for static sources. Versioned sources memoize per epoch
// themselves, so the engine never serves stale statistics for a graph
// that has since published new versions.
func (e *Engine) Stats() (*graph.Stats, error) {
	if ss, ok := e.snapshotSource(); ok {
		return ss.GraphStats()
	}
	e.mu.Lock()
	if e.stats != nil {
		s := e.stats
		e.mu.Unlock()
		return s, nil
	}
	e.mu.Unlock()
	var s *graph.Stats
	switch {
	case e.Source != nil:
		var err error
		if s, err = e.Source.GraphStats(); err != nil {
			return nil, err
		}
	case e.graphField() != nil:
		s = graph.ComputeStats(e.graphField())
	default:
		return nil, fmt.Errorf("engine: no graph and no source")
	}
	e.mu.Lock()
	if e.stats == nil {
		e.stats = s
	}
	s = e.stats
	e.mu.Unlock()
	return s, nil
}

// Row is one result row: the focal node(s) in FROM-clause order and the
// census count(s).
type Row struct {
	Focal []graph.NodeID
	// Count is the first aggregate's value (the common case of one
	// COUNTP/COUNTSP per query).
	Count int64
	// Counts holds every aggregate's value in SELECT-list order; nil means
	// the single Count value.
	Counts []int64
}

// Table is one query's result. Pairwise censuses report only rows with a
// non-zero count (pattern-driven evaluation produces exactly those), and
// never pair a node with itself.
type Table struct {
	// Query is the executed statement.
	Query *lang.SelectStmt
	// Header holds one label per SELECT item.
	Header []string
	// Rows holds the string-rendered cells, parallel to TypedRows.
	Rows [][]string
	// TypedRows holds the underlying focal nodes and counts.
	TypedRows []Row
	// Algorithm records which evaluator ran (the first aggregate's choice
	// when a multi-aggregate query mixes algorithms; see Plan for all).
	Algorithm Algorithm
	// NumMatches is the size of the global match set (where applicable).
	NumMatches int
	// Elapsed is the wall-clock evaluation time of the census (excluding
	// parsing and WHERE-based focal selection); it mirrors
	// Stats.CensusTime.
	Elapsed time.Duration
	// Plan is the optimized plan the query executed under.
	Plan *plan.Physical
	// Stats breaks the execution down per pipeline stage.
	Stats ExecStats
	// Epoch is the graph version the query pinned when the engine serves a
	// versioned source (NewEngineLiveSharded): planning statistics and
	// execution both observed exactly this snapshot. Zero for static
	// sources.
	Epoch uint64
}

// DefinePattern registers a programmatically built pattern so queries can
// reference it by name. Redefining an existing name is an error — the
// same policy the parser applies to PATTERN statements.
func (e *Engine) DefinePattern(p *pattern.Pattern) error {
	if err := p.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.catalog[p.Name]; dup {
		return fmt.Errorf("engine: pattern %s already defined", p.Name)
	}
	e.catalog[p.Name] = p
	return nil
}

// Patterns returns a copy of the engine's pattern catalog; mutating the
// returned map does not affect the engine.
func (e *Engine) Patterns() map[string]*pattern.Pattern {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]*pattern.Pattern, len(e.catalog))
	for name, p := range e.catalog {
		out[name] = p
	}
	return out
}

// adoptPatterns merges the patterns a parse produced into the catalog,
// skipping names that already exist (the parser rejects genuine
// redefinitions; existing entries here are the catalog seed itself).
func (e *Engine) adoptPatterns(parsed map[string]*pattern.Pattern) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, p := range parsed {
		if _, exists := e.catalog[name]; !exists {
			e.catalog[name] = p
		}
	}
}

// Execute parses src (PATTERN definitions and SELECT queries) and runs
// every query, returning one table per query in order. Patterns the
// script defines are added to the catalog; redefining an existing name
// is a parse error (the policy DefinePattern also enforces), so only
// genuinely new definitions are copied in.
func (e *Engine) Execute(src string) ([]*Table, error) {
	return e.ExecuteContext(context.Background(), src) //egolint:allow ctxflow sanctioned root: public non-Context convenience wrapper; cancellation-aware callers use the Context variant
}

// ExecuteContext is Execute under a context: every query runs cancellable
// and resource-bounded (see RunContext). Tables of queries completed before
// a failure are not returned; the typed error's PartialTable carries the
// failing query's partial output.
func (e *Engine) ExecuteContext(ctx context.Context, src string) ([]*Table, error) {
	parseStart := time.Now()
	script, err := lang.ParseWith(src, e.Patterns())
	if err != nil {
		return nil, err
	}
	parseTime := time.Since(parseStart)
	e.adoptPatterns(script.Patterns)
	var tables []*Table
	for _, q := range script.Queries() {
		t, err := e.runContext(ctx, q, nil, ExecStats{ParseTime: parseTime})
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Plan builds and optimizes the logical plan for one parsed query
// without executing it, against the current version's statistics.
func (e *Engine) Plan(q *lang.SelectStmt) (*plan.Physical, error) {
	s, err := e.Stats()
	if err != nil {
		return nil, err
	}
	return e.planWith(q, s)
}

// planWith optimizes q against an explicit statistics snapshot, so a
// pinned query plans against the same version it executes on.
func (e *Engine) planWith(q *lang.SelectStmt, s *graph.Stats) (*plan.Physical, error) {
	logical, err := plan.Build(q, e.Patterns())
	if err != nil {
		return nil, err
	}
	return plan.Optimize(logical, plan.Env{
		Stats:       s,
		Forced:      string(e.Alg),
		KMeansIters: e.Opt.KMeansIters,
	})
}

// Run executes one parsed query: optimize, then (unless EXPLAIN) compile
// to a physical pipeline and run it.
func (e *Engine) Run(q *lang.SelectStmt) (*Table, error) {
	return e.RunContext(context.Background(), q) //egolint:allow ctxflow sanctioned root: public non-Context convenience wrapper; cancellation-aware callers use the Context variant
}

// RunContext is Run under a context. Cancellation, deadline expiry, and
// the resource limits of e.Opt.Limits stop the pipeline within a bounded
// interval, surfacing as a *CanceledError or *LimitError whose
// PartialTable carries whatever rows the pipeline had produced. Panics
// anywhere in the execution pipeline (including census worker goroutines,
// which forward theirs to the coordinating goroutine) are converted to a
// *InternalError with the query text and optimized plan attached —
// unrecoverable runtime corruption aborts the process before any recover
// runs, so the conversion never masks it.
func (e *Engine) RunContext(ctx context.Context, q *lang.SelectStmt) (*Table, error) {
	return e.runContext(ctx, q, nil, ExecStats{})
}

// pin resolves the snapshot a query should observe: versioned sources pin
// one snapshot up front so planning statistics, EXPLAIN output, and
// execution all see the same epoch regardless of concurrent publishes.
func (e *Engine) pin() (*graph.Snapshot, uint64) {
	if ss, ok := e.snapshotSource(); ok {
		snap := ss.Snapshot()
		return snap, snap.Epoch()
	}
	return nil, 0
}

// statsFor returns planning statistics for a pinned snapshot (or the
// engine's current statistics when unpinned).
func (e *Engine) statsFor(pinned *graph.Snapshot) (*graph.Stats, error) {
	if pinned != nil {
		ss, _ := e.snapshotSource()
		return ss.StatsAt(pinned)
	}
	return e.Stats()
}

// graphFor returns the execution graph for a pinned snapshot (or the
// engine's graph when unpinned).
func (e *Engine) graphFor(pinned *graph.Snapshot) (*graph.Graph, error) {
	if pinned != nil {
		return pinned.Graph(), nil
	}
	return e.Graph()
}

// runContext is the uncached execution path shared by Run/Execute: plan
// against the pinned version, then hand off to the stateless executor.
func (e *Engine) runContext(ctx context.Context, q *lang.SelectStmt, params map[string]string, base ExecStats) (*Table, error) {
	pinned, epoch := e.pin()
	planStart := time.Now()
	s, err := e.statsFor(pinned)
	if err != nil {
		return nil, err
	}
	phys, err := e.planWith(q, s)
	if err != nil {
		return nil, err
	}
	base.PlanTime = time.Since(planStart)
	if q.Explain {
		t := explainTable(q, phys, base)
		t.Epoch = epoch
		return t, nil
	}
	g, err := e.graphFor(pinned)
	if err != nil {
		return nil, err
	}
	return execute(ctx, execRequest{
		q:      q,
		phys:   phys,
		g:      g,
		epoch:  epoch,
		seed:   e.Seed,
		opt:    e.Opt,
		params: params,
		base:   base,
	})
}

// execRequest carries everything one execution needs. It is built per
// call and never shared, which is what makes the executor safe for
// unlimited concurrent callers over one engine.
type execRequest struct {
	q      *lang.SelectStmt
	phys   *plan.Physical
	g      *graph.Graph
	epoch  uint64
	seed   int64
	opt    Options
	params map[string]string
	// base carries measurements taken before execution (parse and plan
	// stages, cache flags).
	base ExecStats
}

// execute compiles the physical plan to its operator pipeline and runs
// it. This is the stateless executor: it reads nothing through the
// engine.
func execute(ctx context.Context, req execRequest) (*Table, error) {
	gd, cancel := newGuard(ctx, req.opt.Limits)
	defer cancel()
	st := &execState{
		g:      req.g,
		phys:   req.phys,
		q:      req.q,
		gd:     gd,
		seed:   req.seed,
		opt:    req.opt,
		params: req.params,
		table: &Table{
			Query: req.q,
			Plan:  req.phys,
			Stats: req.base,
			Epoch: req.epoch,
		},
	}
	st.specs = make([]Spec, len(req.phys.Aggs))
	for i, agg := range req.phys.Aggs {
		pat, err := agg.Pattern.BindParams(req.params)
		if err != nil {
			return nil, err
		}
		st.specs[i] = Spec{Pattern: pat, Subpattern: agg.Subpattern, K: req.phys.K}
	}
	if req.phys.Pair {
		mode := Intersection
		if req.phys.Union {
			mode = Union
		}
		st.pairSpec = &PairSpec{Spec: st.specs[0], Mode: mode}
	}
	if err := runPipeline(st); err != nil {
		attachPartialTable(err, st)
		return nil, err
	}
	return st.table, nil
}

// runPipeline executes the compiled operator pipeline, converting panics
// to *InternalError at this boundary.
func runPipeline(st *execState) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ie := &InternalError{Query: st.q.String(), Plan: st.phys.Explain()}
		if wp, ok := r.(*workerPanic); ok {
			// A census worker goroutine panicked; its original panic value
			// and stack were carried to this goroutine by the pool.
			ie.Panic, ie.Stack = wp.val, wp.stack
		} else {
			ie.Panic, ie.Stack = r, debug.Stack()
		}
		err = ie
	}()
	for _, op := range compile(st.phys) {
		if err := op.Run(st); err != nil {
			return err
		}
	}
	return nil
}

// attachPartialTable links the partially built result table into a typed
// cancellation/limit failure, rendering the accumulated rows first so
// callers can print what completed without reaching into engine internals.
func attachPartialTable(err error, st *execState) {
	var ce *CanceledError
	var le *LimitError
	switch {
	case errors.As(err, &ce), errors.As(err, &le):
	default:
		return
	}
	t := st.table
	if t.Header == nil {
		t.Header = header(st.q)
	}
	finishTable(st.g, st.q, t)
	if ce != nil {
		ce.PartialTable = t
		return
	}
	le.PartialTable = t
}

// explainTable renders the optimized plan tree as a one-column table.
func explainTable(q *lang.SelectStmt, phys *plan.Physical, base ExecStats) *Table {
	t := &Table{
		Query:     q,
		Header:    []string{"plan"},
		Plan:      phys,
		Algorithm: Algorithm(phys.Algorithm(0)),
		Stats:     base,
	}
	for _, line := range strings.Split(strings.TrimRight(phys.Explain(), "\n"), "\n") {
		t.Rows = append(t.Rows, []string{line})
	}
	return t
}

// rndStream is a deterministic RND() source for a focal node or pair:
// reset seeds it from the execution seed and the focal identity, so the
// values depend on neither evaluation order nor earlier bindings, and one
// stream serves a whole execution without allocating per binding.
type rndStream struct{ state uint64 }

func (r *rndStream) reset(seed, a, b int64) {
	r.state = uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(a+1)*0xBF58476D1CE4E5B9 ^ uint64(b+1)*0x94D049BB133111EB
}

// next is one splitmix64 step.
func (r *rndStream) next() float64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
