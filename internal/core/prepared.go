package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/plan"
)

// Prepared is a compiled census query: parsed once, fingerprinted, and
// executed any number of times with per-call parameter bindings. It is
// immutable after Prepare and safe for unlimited concurrent callers —
// each execution copies what it needs and runs through the stateless
// executor.
//
// Executions reuse work through two engine-level caches, both keyed by
// the query fingerprint and the snapshot epoch:
//
//   - the plan cache holds the optimized physical plan per statistics
//     epoch, so a warm execution skips parsing AND planning
//     (ExecStats.PlanCached);
//   - the result cache holds whole tables per (epoch, parameters, seed),
//     so a repeated execution against an unchanged version returns
//     without running any pipeline stage (ExecStats.ResultCached).
//
// A Writer publish advances the epoch and both caches miss naturally; no
// invalidation hooks exist or are needed.
type Prepared struct {
	e          *Engine
	q          *lang.SelectStmt
	fp         lang.Fingerprint
	paramNames []string
	parseTime  time.Duration
}

// ErrNotOneSelect reports Prepare input that does not contain exactly one
// SELECT statement. Serving layers use it to fall back to script
// execution for multi-statement requests.
var ErrNotOneSelect = errors.New("prepared: want exactly one SELECT")

// ParamError reports missing or unexpected parameter bindings for a
// prepared execution.
type ParamError struct {
	// Missing lists declared parameters with no binding; Unknown lists
	// bindings that match no declared parameter. Both are sorted.
	Missing []string
	Unknown []string
}

// Error implements error.
func (e *ParamError) Error() string {
	switch {
	case len(e.Missing) > 0 && len(e.Unknown) > 0:
		return fmt.Sprintf("prepared: missing parameters %v, unknown parameters %v", e.Missing, e.Unknown)
	case len(e.Missing) > 0:
		return fmt.Sprintf("prepared: missing parameters %v", e.Missing)
	default:
		return fmt.Sprintf("prepared: unknown parameters %v", e.Unknown)
	}
}

// ExecOptions are per-execution knobs for a prepared query.
type ExecOptions struct {
	// Limits overrides the engine's resource limits for this execution
	// when non-nil (a request deadline or row cap from a serving layer).
	Limits *Limits
	// NoResultCache bypasses the result cache for this execution: the
	// query runs fully and its table is not stored. Benchmarks use it to
	// measure plan-cache-only latency.
	NoResultCache bool
}

// Prepare parses src — optional PATTERN definitions followed by exactly
// one SELECT — and compiles it into a reusable Prepared. Patterns the
// text defines are added to the engine catalog (redefinition is a parse
// error, so preparing the same text twice requires the definitions to be
// outside, or the statement to be prepared once and reused). The
// statement may reference $name parameters in WHERE predicates and in
// pattern attribute predicates; Params reports them.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	parseStart := time.Now()
	script, err := lang.ParseWith(src, e.Patterns())
	if err != nil {
		return nil, err
	}
	parseTime := time.Since(parseStart)
	qs := script.Queries()
	if len(qs) != 1 {
		return nil, fmt.Errorf("%w, got %d", ErrNotOneSelect, len(qs))
	}
	e.adoptPatterns(script.Patterns)
	q := qs[0]
	fp, err := lang.QueryFingerprint(q, script.Patterns)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		e:          e,
		q:          q,
		fp:         fp,
		paramNames: lang.QueryParams(q, script.Patterns),
		parseTime:  parseTime,
	}, nil
}

// Params returns the sorted $name parameters the statement declares.
func (p *Prepared) Params() []string {
	out := make([]string, len(p.paramNames))
	copy(out, p.paramNames)
	return out
}

// Fingerprint returns the statement's canonical cache key.
func (p *Prepared) Fingerprint() lang.Fingerprint { return p.fp }

// Query returns the parsed statement (read-only).
func (p *Prepared) Query() *lang.SelectStmt { return p.q }

// Execute runs the prepared statement with the given parameter bindings.
func (p *Prepared) Execute(params map[string]string) (*Table, error) {
	return p.ExecuteContext(context.Background(), params, ExecOptions{}) //egolint:allow ctxflow sanctioned root: public non-Context convenience wrapper; cancellation-aware callers use the Context variant
}

// ExecuteContext runs the prepared statement: validate bindings, pin the
// current snapshot, probe the result cache, then the plan cache, and only
// on a cold plan pay optimization. Safe for unlimited concurrent callers.
func (p *Prepared) ExecuteContext(ctx context.Context, params map[string]string, opts ExecOptions) (*Table, error) {
	if err := p.checkParams(params); err != nil {
		return nil, err
	}
	e := p.e
	config := e.configTag()
	pinned, epoch := e.pin()

	opt := e.Opt
	if opts.Limits != nil {
		opt.Limits = *opts.Limits
	}

	rkey := resultKey{
		fp:     p.fp,
		epoch:  epoch,
		config: config,
		seed:   e.Seed,
		params: canonicalParams(params),
	}
	useResultCache := !p.q.Explain && !opts.NoResultCache
	if useResultCache {
		if t, ok := e.results().get(rkey); ok {
			return t, nil
		}
	}

	planStart := time.Now()
	pkey := planCacheKey(p.fp, epoch, config)
	phys, cached, err := p.planFor(pkey, pinned)
	if err != nil {
		return nil, err
	}
	base := ExecStats{PlanTime: time.Since(planStart), PlanCached: cached}

	if p.q.Explain {
		t := explainTable(p.q, phys, base)
		t.Epoch = epoch
		return t, nil
	}
	g, err := e.graphFor(pinned)
	if err != nil {
		return nil, err
	}
	t, err := execute(ctx, execRequest{
		q:      p.q,
		phys:   phys,
		g:      g,
		epoch:  epoch,
		seed:   e.Seed,
		opt:    opt,
		params: params,
		base:   base,
	})
	if err != nil {
		return nil, err
	}
	if useResultCache {
		e.results().put(rkey, t)
	}
	return t, nil
}

// planFor resolves the optimized plan through the plan cache, optimizing
// against the pinned version's statistics and filling the cache on a
// miss. Concurrent misses for the same key may both optimize; last write
// wins, and both plans are equivalent (same query, same statistics).
func (p *Prepared) planFor(key plan.CacheKey, pinned *graph.Snapshot) (*plan.Physical, bool, error) {
	if v, ok := p.e.plans().Get(key); ok {
		return v.(*plan.Physical), true, nil
	}
	s, err := p.e.statsFor(pinned)
	if err != nil {
		return nil, false, err
	}
	phys, err := p.e.planWith(p.q, s)
	if err != nil {
		return nil, false, err
	}
	p.e.plans().Put(key, phys)
	return phys, false, nil
}

// planCacheKey builds the plan-cache key for a fingerprint at one
// statistics epoch under one engine configuration.
func planCacheKey(fp lang.Fingerprint, epoch, config uint64) plan.CacheKey {
	return plan.CacheKey{Fingerprint: fp, Epoch: epoch, Config: config}
}

// configTag hashes the engine configuration that shapes plans and
// results (forced algorithm, optimizer knobs, tuning options), so cache
// entries from different configurations never collide.
func (e *Engine) configTag() uint64 {
	h := fnv.New64a()
	io.WriteString(h, string(e.Alg))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(e.Opt.KMeansIters)))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(int64(e.Opt.NumCenters)))
	h.Write(b[:])
	return h.Sum64()
}

// checkParams validates bindings against the declared parameter set.
func (p *Prepared) checkParams(params map[string]string) error {
	var pe ParamError
	for _, name := range p.paramNames {
		if _, ok := params[name]; !ok {
			pe.Missing = append(pe.Missing, name)
		}
	}
	for name := range params {
		if !p.declares(name) {
			pe.Unknown = append(pe.Unknown, name)
		}
	}
	if len(pe.Missing) == 0 && len(pe.Unknown) == 0 {
		return nil
	}
	sort.Strings(pe.Unknown) // Missing is already sorted (paramNames is)
	return &pe
}

func (p *Prepared) declares(name string) bool {
	for _, n := range p.paramNames {
		if n == name {
			return true
		}
	}
	return false
}
