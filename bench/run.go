package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"egocensus/internal/serve"
)

// setupRepeats is how many times a run builds its environment from
// scratch; setup_s is the median, and the last environment is the one
// measured.
const setupRepeats = 5

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what a run is asked to do.
type runConfig struct {
	wl      *workload
	seed    int64
	seconds time.Duration
	outDir  string
	// ref computes reference answers; tests corrupt it.
	ref reference
}

// repeatedSetup builds and tears down the environment setupRepeats times
// and returns the last one with the median build time.
func repeatedSetup(ctx context.Context, cfg runConfig) (*env, time.Duration, error) {
	var e *env
	times := make([]time.Duration, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, cfg.wl, cfg.seed, cfg.outDir); err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(t0))
	}
	return e, median(times), nil
}

// outcome is everything one pass of a workload's own loop produced: the
// measured window, and what the loop saw on each path it exercised.
type outcome struct {
	window
	// wrong counts completed operations whose answer failed verification.
	wrong int
	// queries and stats (GET /v1/stats before and after) are set by the
	// kinds that send queries.
	queries *queryObs
	stats   [2]serve.StatsResponse
	// fs, batches, publishes and saves are what the durable store did
	// during the loop, set by the kinds that publish.
	fs        fsCounts
	batches   int
	publishes []interval
	saves     []interval
	// lateness is the open-loop writer's schedule slip (kindMixed only).
	lateness []time.Duration
}

// ownLoop runs n operations of the workload's own loop, giving up at
// giveUp, with readings of the server's and the filesystem's counters
// around it, and checks its answers. Operations the loop never started
// because it gave up count as attempted and failed.
func (e *env) ownLoop(ctx context.Context, n int, giveUp time.Duration, tr *tracer, ref reference) (o outcome, err error) {
	wl := e.in.wl
	if e.srv != nil {
		if o.stats[0], err = e.serverStats(ctx); err != nil {
			return o, err
		}
	}
	var fsBefore fsCounts
	batchesBefore, publishesBefore, savesBefore := e.batches, len(e.publishes), 0
	if e.fs != nil {
		fsBefore, savesBefore = e.fs.counts(), len(e.fs.saveIntervals())
	}

	q := newQuota(n, giveUp)
	switch wl.kind {
	case kindQuery:
		o.window = measure(func() (ops *opLog) {
			ops, o.queries = e.queryLoop(ctx, q, tr, false)
			return ops
		}, e.settle)
	case kindColdOpen:
		o.window = measure(func() *opLog { return e.coldOpenLoop(ctx, q, tr) }, e.settle)
	case kindIngest:
		o.window = measure(func() *opLog { return e.ingestLoop(q, tr) }, e.settle)
	case kindMixed:
		var writes *opLog
		o.window = measure(func() (ops *opLog) {
			done, finished := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(finished)
				writes, o.lateness = e.writerLoop(done, tr)
			}()
			ops, o.queries = e.queryLoop(ctx, q, tr, false)
			close(done)
			<-finished
			return ops
		}, e.settle)
		// Publishes are attempted operations too, but only queries are
		// the workload's "op": their latencies stay out of the log.
		o.ops.attempted += writes.attempted
		o.ops.failed += writes.failed
	}
	if missed := q.missed(); missed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s gave up after %v with %d of %d operations not started\n", wl.name, giveUp, missed, n)
		o.ops.attempted += missed
		o.ops.failed += missed
	}

	if e.srv != nil {
		if o.stats[1], err = e.serverStats(ctx); err != nil {
			return o, err
		}
		if o.wrong, err = verifyResponses(ctx, e.in, o.queries.seen, ref); err != nil {
			return o, err
		}
		o.wrong += o.queries.conflicts
	}
	if e.fs != nil {
		o.fs = e.fs.counts().sub(fsBefore)
		o.batches = e.batches - batchesBefore
		o.publishes = e.publishes[publishesBefore:]
		o.saves = e.fs.saveIntervals()[savesBefore:]
	}
	return o, nil
}

// runUntraced is the end-to-end pass: repeated set-up, one measured
// window of opsPerSecond × seconds operations of the workload's own loop
// with no tracing, then verification.
func runUntraced(ctx context.Context, cfg runConfig) (*result, error) {
	e, setupTime, err := repeatedSetup(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()

	o, err := e.ownLoop(ctx, cfg.wl.ops(cfg.seconds), giveUpFactor*cfg.seconds, nil, cfg.ref)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: o.ops.attempted, Failed: o.ops.failed + o.wrong}
	if e.ds != nil {
		// The durability check is part of the answer: a publish that was
		// acknowledged but does not survive a reopen failed.
		if _, err := e.verifyDurable(ctx, nil); err != nil {
			fmt.Fprintf(os.Stderr, "durability check failed: %v\n", err)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics = o.endToEnd(setupTime, o.wrong)
	return res, nil
}
