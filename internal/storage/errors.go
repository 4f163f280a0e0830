package storage

import (
	"errors"
	"fmt"
	"syscall"
)

// CorruptFileError reports a graph file that failed structural validation:
// checksum mismatch, bad magic, inconsistent header geometry, or section
// contents referencing out-of-range nodes, edges, or labels. Open returns
// it (wrapped) for any file that is syntactically readable but unsafe to
// serve; a corrupt file never panics the reader or drives allocations past
// the file's own size.
type CorruptFileError struct {
	// Path is the file that failed validation.
	Path string
	// Detail describes the first violated invariant.
	Detail string
}

func (e *CorruptFileError) Error() string {
	return fmt.Sprintf("storage: %s: corrupt graph file: %s", e.Path, e.Detail)
}

// corrupt builds a *CorruptFileError for the store's file.
func (st *Store) corrupt(format string, args ...any) error {
	return &CorruptFileError{Path: st.path, Detail: fmt.Sprintf(format, args...)}
}

// TransientError classifies a storage failure as plausibly recoverable by
// retrying: the condition (disk full, interrupted syscall, resource
// exhaustion) can clear without replacing hardware or files. The
// graph.ShardedWriter's publish path retries transient WAL appends with
// bounded exponential backoff before entering degraded mode; every other
// storage failure is treated as permanent and degrades immediately.
type TransientError struct {
	// Op names the failed operation ("wal segment append", ...).
	Op string
	// Path is the file the operation targeted.
	Path string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *TransientError) Error() string {
	return fmt.Sprintf("storage: transient %s failure on %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap exposes the underlying failure for errors.Is/As chains.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient marks the error retryable; graph.IsTransient keys off this
// method so the graph package never has to import storage.
func (e *TransientError) Transient() bool { return true }

// isTransientErrno reports whether err is a syscall-level condition worth
// retrying: disk full (an operator or the log compactor can free space),
// interrupted or would-block syscalls, and timeouts. EIO and everything
// else — bad descriptors, corrupt media, closed files — is permanent.
func isTransientErrno(err error) bool {
	for _, errno := range []syscall.Errno{syscall.ENOSPC, syscall.EDQUOT, syscall.EINTR, syscall.EAGAIN, syscall.ETIMEDOUT} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// classifyIO wraps a failed storage operation's error: transient
// conditions become *TransientError (retryable), everything else passes
// through unchanged (permanent).
func classifyIO(op, path string, err error) error {
	if err == nil {
		return nil
	}
	if isTransientErrno(err) {
		return &TransientError{Op: op, Path: path, Err: err}
	}
	return err
}
