package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// This file is the write-path fault policy of the MVCC core: transient
// WAL-append failures are retried with bounded exponential backoff and
// jitter, and an unrecoverable failure — a permanent error, or a
// transient one that survives every retry — flips the writer into an
// explicit read-only degraded mode. Degraded means exactly one thing:
// publishes fail fast with the same *DegradedError until an operator
// resolves the storage fault and calls ClearDegraded. Everything else
// keeps working — pending ops are retained for the post-recovery retry,
// staged mutations still accumulate, and snapshot reads (the whole query
// path) are untouched, because readers never depend on the writer.

// IsTransient reports whether err is classified retryable by the storage
// layer (or any WAL implementation): some error in its chain exposes
// `Transient() bool` returning true. storage.TransientError is the
// canonical implementation; the interface check keeps this package free
// of a storage import.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// RetryPolicy bounds the writer's WAL-append retries. The zero value
// picks the defaults; a negative MaxAttempts disables retrying (one
// attempt, no backoff).
type RetryPolicy struct {
	// MaxAttempts is the total number of append attempts, the first
	// included (0: default 4; negative: 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry (0: default 2ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0: default 50ms).
	MaxDelay time.Duration
}

func (p RetryPolicy) attempts() int {
	switch {
	case p.MaxAttempts > 0:
		return p.MaxAttempts
	case p.MaxAttempts < 0:
		return 1
	}
	return 4
}

// backoff returns the sleep before retry number retry (1-based):
// exponential doubling from BaseDelay, capped at MaxDelay, with equal
// jitter (half fixed, half uniform random) so a fleet of writers hitting
// one faulted disk does not retry in lockstep.
func (p RetryPolicy) backoff(retry int, rng *rand.Rand) time.Duration {
	base, max := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if max <= 0 {
		max = 50 * time.Millisecond
	}
	d := base << (retry - 1)
	if d > max || d <= 0 {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// DegradedError reports that the writer is in read-only degraded mode:
// an earlier publish exhausted its WAL retries (or hit a permanent
// storage failure) and every subsequent publish fails fast with this
// error until ClearDegraded. Reads are unaffected — pinned snapshots and
// new Snapshot() acquisitions keep serving the last published epoch.
type DegradedError struct {
	// Cause is the unrecoverable WAL failure that tripped degraded mode.
	Cause error
	// Epoch is the last successfully published version; everything up to
	// it is durable and being served.
	Epoch uint64
	// Since is when the writer degraded.
	Since time.Time
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("graph: writer degraded (read-only) since %s at epoch %d: %v",
		e.Since.Format(time.RFC3339), e.Epoch, e.Cause)
}

// Unwrap exposes the storage failure that tripped degraded mode.
func (e *DegradedError) Unwrap() error { return e.Cause }
