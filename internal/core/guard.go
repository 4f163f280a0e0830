package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// guard carries one evaluation's cancellation and resource-limit state.
// The hot census loops consult it through epoch-counted tickers (one
// check per checkEvery units) and through a single atomic load per focal
// unit, so the overhead stays branch-cheap; once any worker observes a
// stop cause, the stopFlag fans the stop out to every other worker within
// one epoch. A nil *guard is valid and disables all checking — the
// context-free entry points pass nil and pay nothing.
type guard struct {
	ctx    context.Context
	done   <-chan struct{}
	limits Limits

	stopFlag atomic.Bool
	mu       sync.Mutex
	cause    error

	start      time.Time
	focalDone  atomic.Int64
	focalTotal atomic.Int64
	matches    atomic.Int64
	rows       atomic.Int64
	mem        atomic.Int64
}

// checkEvery is the epoch length of the hot-loop cancellation checks: one
// real check per ~4096 focal-node/match units keeps the loops branch-cheap
// while bounding the reaction latency to a few thousand cheap iterations.
const checkEvery = 4096

// newGuard builds the guard for one evaluation, applying the Deadline
// limit as a derived context. It returns a nil guard (no checking at all)
// when the context can never be canceled and no limits are set. The
// returned cancel must be called when evaluation finishes.
func newGuard(ctx context.Context, limits Limits) (*guard, context.CancelFunc) {
	if limits.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limits.Deadline)
		return &guard{ctx: ctx, done: ctx.Done(), limits: limits, start: time.Now()}, cancel
	}
	if ctx.Done() == nil && limits == (Limits{}) {
		return nil, func() {}
	}
	return &guard{ctx: ctx, done: ctx.Done(), limits: limits, start: time.Now()}, func() {}
}

// stop records the first stop cause and raises the flag every worker polls.
func (gd *guard) stop(cause error) {
	gd.mu.Lock()
	if gd.cause == nil {
		gd.cause = cause
	}
	gd.mu.Unlock()
	gd.stopFlag.Store(true)
}

// stopped reports whether evaluation must wind down (one atomic load).
func (gd *guard) stopped() bool {
	return gd != nil && gd.stopFlag.Load()
}

// err returns the recorded stop cause.
func (gd *guard) err() error {
	if gd == nil {
		return nil
	}
	gd.mu.Lock()
	defer gd.mu.Unlock()
	return gd.cause
}

// check is the full cancellation check: stop flag, then context. It is
// called once per focal unit by the worker pool and once per epoch by the
// hot-loop tickers.
func (gd *guard) check() error {
	if gd == nil {
		return nil
	}
	if gd.stopFlag.Load() {
		return gd.err()
	}
	select {
	case <-gd.done:
		gd.stop(gd.ctx.Err())
		return gd.err()
	default:
		return nil
	}
}

// setFocalTotal records the focal-unit denominator for progress reports.
func (gd *guard) setFocalTotal(n int) {
	if gd != nil {
		gd.focalTotal.Store(int64(n))
	}
}

// focalTick counts one completed focal unit.
func (gd *guard) focalTick() {
	if gd != nil {
		gd.focalDone.Add(1)
	}
}

// chargeMatches accounts n global matches against MaxMatches.
func (gd *guard) chargeMatches(n int) error {
	if gd == nil {
		return nil
	}
	total := gd.matches.Add(int64(n))
	if gd.limits.MaxMatches > 0 && total > int64(gd.limits.MaxMatches) {
		gd.stop(&limitStop{kind: "max-matches", value: int64(gd.limits.MaxMatches), actual: total})
	}
	return gd.check()
}

// chargeRows accounts n result rows against MaxResultRows.
func (gd *guard) chargeRows(n int) error {
	if gd == nil {
		return nil
	}
	total := gd.rows.Add(int64(n))
	if gd.limits.MaxResultRows > 0 && total > int64(gd.limits.MaxResultRows) {
		gd.stop(&limitStop{kind: "max-result-rows", value: int64(gd.limits.MaxResultRows), actual: total})
		return gd.err()
	}
	return nil
}

// chargeMem accounts bytes against MemoryBudget.
func (gd *guard) chargeMem(bytes int64) error {
	if gd == nil {
		return nil
	}
	total := gd.mem.Add(bytes)
	if gd.limits.MemoryBudget > 0 && total > gd.limits.MemoryBudget {
		gd.stop(&limitStop{kind: "memory-budget", value: gd.limits.MemoryBudget, actual: total})
		return gd.err()
	}
	return nil
}

// progress snapshots the counters.
func (gd *guard) progress() Progress {
	if gd == nil {
		return Progress{}
	}
	return Progress{
		FocalDone:   gd.focalDone.Load(),
		FocalTotal:  gd.focalTotal.Load(),
		Matches:     gd.matches.Load(),
		Rows:        gd.rows.Load(),
		MemoryBytes: gd.mem.Load(),
		Elapsed:     time.Since(gd.start),
	}
}

// failure converts the recorded stop cause into the typed public error,
// attaching partial results. It returns nil when evaluation was not
// stopped, so drivers end with `return res, gd.failure(res, nil)`-style
// epilogues only where an explicit nil check reads worse.
func (gd *guard) failure(partial *Result, pairs *PairResult) error {
	cause := gd.err()
	if cause == nil {
		return nil
	}
	prog := gd.progress()
	var ls *limitStop
	if errors.As(cause, &ls) {
		return &LimitError{
			Limit:        ls.kind,
			Value:        ls.value,
			Actual:       ls.actual,
			Progress:     prog,
			Partial:      partial,
			PartialPairs: pairs,
		}
	}
	return &CanceledError{
		Cause:        cause,
		Progress:     prog,
		Partial:      partial,
		PartialPairs: pairs,
	}
}

// stopFunc returns the stop poll handed to CN and k-means: a full check
// (the callee epoch-counts its calls).
func (gd *guard) stopFunc() func() bool {
	if gd == nil {
		return nil
	}
	return func() bool { return gd.check() != nil }
}

// ticker is the per-worker epoch counter for hot loops: tick returns a
// non-nil error at most once per checkEvery calls, when the full check
// fails. Each worker owns its ticker, so ticking is a local increment.
type ticker struct {
	gd *guard
	n  uint32
}

// tick counts one hot-loop unit and runs the full check once per epoch.
func (t *ticker) tick() error {
	if t.gd == nil {
		return nil
	}
	t.n++
	if t.n%checkEvery != 0 {
		return nil
	}
	return t.gd.check()
}
