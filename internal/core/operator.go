package core

import (
	"sort"
	"time"

	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/plan"
)

// This file is the execute layer of the query pipeline: physical
// operators compiled from an optimized plan.Physical, each wrapping one
// stage of census evaluation and recording its measurements.

// ExecStats records per-stage measurements of one query's physical
// pipeline, threaded into the result Table (and egosh's \timing).
type ExecStats struct {
	// ParseTime covers lexing and parsing. Prepared executions report
	// zero: the statement was parsed once at Prepare time.
	ParseTime time.Duration
	// PlanTime covers logical plan construction plus cost-based
	// optimization. Prepared executions served from the plan cache report
	// only the cache probe.
	PlanTime time.Duration
	// PlanCached reports that the optimized plan came from the engine's
	// plan cache (same fingerprint, same statistics epoch) — parse and
	// optimization were both skipped.
	PlanCached bool
	// ResultCached reports that the whole table came from the engine's
	// result cache: no pipeline stage ran, and the stage timings below
	// describe the execution that originally produced the rows.
	ResultCached bool
	// FocalTime covers WHERE resolution to focal nodes or pairs.
	FocalTime time.Duration
	// FocalCount is the focal-set size after WHERE: nodes for single-node
	// censuses, unordered candidate pairs for node-driven pairwise ones.
	// Pattern-driven pairwise evaluation resolves pairs lazily from the
	// match set and reports -1.
	FocalCount int
	// CensusTime covers the census drivers proper (Table.Elapsed mirrors
	// it for backwards compatibility).
	CensusTime time.Duration
	// MatchSetSize is |M|, the global match-set size summed over
	// aggregates (0 for ND-BAS, which never materializes it).
	MatchSetSize int
	// Embeddings is the number of embeddings the global match emitted to
	// find those matches, summed like MatchSetSize. It equals
	// MatchSetSize when symmetry breaking leaves one embedding per match.
	Embeddings int
	// RenderTime covers pair-row emission, ORDER BY/LIMIT, and cell
	// rendering.
	RenderTime time.Duration
	// Rows is the emitted row count.
	Rows int
}

// Operator is one stage of a physical execution pipeline. Operators
// mutate the shared execution state in order and record their
// measurements into the table's ExecStats.
type Operator interface {
	// Name identifies the stage for timing displays.
	Name() string
	Run(st *execState) error
}

// execState is the mutable state a pipeline threads through its
// operators. It deliberately does not reference the Engine: everything an
// execution needs is copied in up front, so any number of pipelines can
// run concurrently over a shared engine without touching shared state.
type execState struct {
	g        *graph.Graph
	phys     *plan.Physical
	q        *lang.SelectStmt
	gd       *guard // one guard spans the whole pipeline (nil: ungoverned)
	seed     int64  // RND() stream seed
	opt      Options
	params   map[string]string // $name bindings (nil: parameter-free)
	specs    []Spec
	pairSpec *PairSpec
	results  []*Result
	table    *Table

	// bindings, rnd and rndNext are passes' per-binding scratch, reused
	// across the nodes and pairs one execution tests.
	bindings [2]lang.Binding
	rnd      rndStream
	rndNext  func() float64
}

// compile lowers an optimized plan to its operator pipeline.
func compile(phys *plan.Physical) []Operator {
	if phys.Pair {
		return []Operator{focalSelectOp{}, pairCensusOp{}, renderOp{}}
	}
	return []Operator{focalSelectOp{}, censusOp{}, renderOp{}}
}

// passes evaluates the WHERE clause for a focal binding (node or ordered
// pair) with the deterministic RND() stream and the execution's parameter
// bindings.
func (st *execState) passes(nodes ...graph.NodeID) (bool, error) {
	if st.q.Where == nil {
		return true, nil
	}
	bindings := st.bindings[:len(nodes)]
	for i, n := range nodes {
		bindings[i] = lang.Binding{Alias: st.q.Aliases[i], Node: n}
	}
	a, b := int64(nodes[0]), int64(0)
	if len(nodes) > 1 {
		b = int64(nodes[1])
	}
	st.rnd.reset(st.seed, a, b)
	if st.rndNext == nil {
		st.rndNext = st.rnd.next
	}
	return lang.EvalWhereParams(st.q.Where, st.g, bindings, st.rndNext, st.params)
}

// focalSelectOp resolves the WHERE clause to the focal node set (or, for
// node-driven pairwise evaluation, the explicit pair list).
type focalSelectOp struct{}

// Name implements Operator.
func (focalSelectOp) Name() string { return "focal-select" }

// Run implements Operator.
func (focalSelectOp) Run(st *execState) error {
	start := time.Now()
	defer func() { st.table.Stats.FocalTime = time.Since(start) }()

	tk := ticker{gd: st.gd}
	if !st.phys.Pair {
		st.table.Stats.FocalCount = st.g.NumNodes()
		if st.q.Where == nil {
			return nil
		}
		var focal []graph.NodeID
		for i := 0; i < st.g.NumNodes(); i++ {
			if tk.tick() != nil {
				return st.gd.failure(nil, nil)
			}
			n := graph.NodeID(i)
			ok, err := st.passes(n)
			if err != nil {
				return err
			}
			if ok {
				focal = append(focal, n)
			}
		}
		if focal == nil {
			focal = []graph.NodeID{} // empty but non-nil: nothing selected
		}
		for i := range st.specs {
			st.specs[i].Focal = focal
		}
		st.table.Stats.FocalCount = len(focal)
		return nil
	}

	// Node-driven pairwise evaluation needs the pair list up front:
	// enumerate ordered pairs passing WHERE. Pattern-driven evaluation
	// produces non-zero pairs directly and filters afterwards.
	alg := st.phys.Algorithm(0)
	if alg != plan.NDBas && alg != plan.NDPvot {
		st.table.Stats.FocalCount = -1
		return nil
	}
	var pairs []Pair
	for i := 0; i < st.g.NumNodes(); i++ {
		for j := 0; j < st.g.NumNodes(); j++ {
			if tk.tick() != nil {
				return st.gd.failure(nil, nil)
			}
			if i == j {
				continue
			}
			a, b := graph.NodeID(i), graph.NodeID(j)
			ok, err := st.passes(a, b)
			if err != nil {
				return err
			}
			if ok {
				pairs = append(pairs, Pair{a, b})
			}
		}
	}
	st.pairSpec.Pairs = canonicalPairs(pairs)
	st.table.Stats.FocalCount = len(st.pairSpec.Pairs)
	return nil
}

// censusOp runs the single-node census drivers and materializes the
// typed result rows. The drivers are chosen by the plan re-priced at the
// focal count focalSelectOp observed, not at the optimizer's estimate.
type censusOp struct{}

// Name implements Operator.
func (censusOp) Name() string { return "census" }

// Run implements Operator.
func (censusOp) Run(st *execState) error {
	start := time.Now()
	algs, batched := st.phys.Reprice(st.table.Stats.FocalCount)
	switch {
	case batched:
		// Multiple aggregates sharing one BFS per focal node.
		st.table.Algorithm = NDPvot
		results, err := countManyGuarded(st.g, st.specs, st.opt, st.gd)
		if err != nil {
			return err
		}
		st.results = results
	default:
		st.table.Algorithm = Algorithm(algs[0])
		for i, spec := range st.specs {
			if err := spec.Validate(st.g); err != nil {
				return err
			}
			res, err := countGuarded(st.g, spec, Algorithm(algs[i]), st.opt, st.gd)
			if err != nil {
				return err
			}
			st.results = append(st.results, res)
		}
	}
	st.table.Stats.CensusTime = time.Since(start)
	st.table.Elapsed = st.table.Stats.CensusTime

	for _, res := range st.results {
		st.table.NumMatches += res.NumMatches
		st.table.Stats.Embeddings += res.Embeddings
	}
	st.table.Stats.MatchSetSize = st.table.NumMatches
	st.table.Header = header(st.q)
	for _, n := range st.specs[0].focalList(st.g) {
		if st.gd.chargeRows(1) != nil {
			break
		}
		counts := make([]int64, len(st.results))
		for i, res := range st.results {
			counts[i] = res.Counts[n]
		}
		st.table.TypedRows = append(st.table.TypedRows,
			Row{Focal: []graph.NodeID{n}, Count: counts[0], Counts: counts})
	}
	var partial *Result
	if len(st.results) > 0 {
		partial = st.results[0]
	}
	return st.gd.failure(partial, nil)
}

// pairCensusOp runs the pairwise census driver and emits the ordered
// rows passing WHERE.
type pairCensusOp struct{}

// Name implements Operator.
func (pairCensusOp) Name() string { return "pair-census" }

// Run implements Operator.
func (pairCensusOp) Run(st *execState) error {
	alg := Algorithm(st.phys.Algorithm(0))
	if err := st.pairSpec.Validate(st.g); err != nil {
		return err
	}
	start := time.Now()
	res, err := countPairsGuarded(st.g, *st.pairSpec, alg, st.opt, st.gd)
	if err != nil {
		return err
	}
	st.table.Stats.CensusTime = time.Since(start)
	st.table.Elapsed = st.table.Stats.CensusTime
	st.table.Algorithm = alg
	st.table.NumMatches = res.NumMatches
	st.table.Stats.MatchSetSize = res.NumMatches
	st.table.Stats.Embeddings = res.Embeddings
	st.table.Header = header(st.q)

	// Emit ordered rows for each non-zero unordered pair that passes
	// WHERE, deterministically sorted. This is row production, so its
	// time accrues to the render stage.
	emitStart := time.Now()
	defer func() { st.table.Stats.RenderTime += time.Since(emitStart) }()
	pairs := make([]Pair, 0, len(res.Counts))
	for pr, c := range res.Counts {
		if c != 0 {
			pairs = append(pairs, pr)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	tk := ticker{gd: st.gd}
	for _, pr := range pairs {
		if tk.tick() != nil {
			break
		}
		c := res.Counts[pr]
		for _, ord := range [][2]graph.NodeID{{pr.A, pr.B}, {pr.B, pr.A}} {
			ok, err := st.passes(ord[0], ord[1])
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			st.table.TypedRows = append(st.table.TypedRows,
				Row{Focal: []graph.NodeID{ord[0], ord[1]}, Count: c})
		}
	}
	return st.gd.failure(nil, res)
}

// renderOp applies ORDER BY/LIMIT and renders string cells.
type renderOp struct{}

// Name implements Operator.
func (renderOp) Name() string { return "render" }

// Run implements Operator.
func (renderOp) Run(st *execState) error {
	start := time.Now()
	finishTable(st.g, st.q, st.table)
	st.table.Stats.RenderTime += time.Since(start)
	st.table.Stats.Rows = len(st.table.Rows)
	return nil
}
