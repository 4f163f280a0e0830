package main

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"egocensus/internal/fault"
)

// countFS counts what the durable store asks of the filesystem. It passes
// every call through to the wrapped FS unchanged. Log traffic (paths
// holding ".log": the single sidecar and the per-shard segments) is
// counted apart from image saves, so the per-publish figures are not
// blurred by a compaction's own writes.
type countFS struct {
	fault.FS

	logWrites     atomic.Int64
	logWriteBytes atomic.Int64
	logSyncs      atomic.Int64
	logNanos      atomic.Int64 // time spent inside log writes and syncs
	// imageRenames counts renames onto an .egoc path: one per saved base
	// image, that is one per compaction once the store exists.
	imageRenames atomic.Int64

	mu    sync.Mutex
	saves []interval // image temp created → renamed over the base image
	open  time.Time
}

// interval is a wall-clock span during which an image save ran.
type interval struct{ from, to time.Time }

// fsCounts is a point-in-time copy of the counters.
type fsCounts struct {
	logWrites, logWriteBytes, logSyncs, logNanos, imageRenames int64
}

func newCountFS(inner fault.FS) *countFS { return &countFS{FS: inner} }

func (c *countFS) counts() fsCounts {
	return fsCounts{
		logWrites:     c.logWrites.Load(),
		logWriteBytes: c.logWriteBytes.Load(),
		logSyncs:      c.logSyncs.Load(),
		logNanos:      c.logNanos.Load(),
		imageRenames:  c.imageRenames.Load(),
	}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		logWrites:     a.logWrites - b.logWrites,
		logWriteBytes: a.logWriteBytes - b.logWriteBytes,
		logSyncs:      a.logSyncs - b.logSyncs,
		logNanos:      a.logNanos - b.logNanos,
		imageRenames:  a.imageRenames - b.imageRenames,
	}
}

// saveIntervals returns the image saves seen so far.
func (c *countFS) saveIntervals() []interval {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]interval(nil), c.saves...)
}

func isLog(name string) bool { return strings.Contains(name, ".log") }

func (c *countFS) wrap(f fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, log: isLog(f.Name())}, nil
}

func (c *countFS) Open(name string) (fault.File, error) { return c.wrap(c.FS.Open(name)) }

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}

func (c *countFS) CreateTemp(dir, pattern string) (fault.File, error) {
	if strings.Contains(pattern, "egoc-save") {
		c.mu.Lock()
		c.open = time.Now()
		c.mu.Unlock()
	}
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}

func (c *countFS) Rename(oldpath, newpath string) error {
	err := c.FS.Rename(oldpath, newpath)
	if err != nil {
		return err
	}
	if strings.HasSuffix(newpath, ".egoc") {
		c.imageRenames.Add(1)
		c.mu.Lock()
		c.saves = append(c.saves, interval{from: c.open, to: time.Now()})
		c.mu.Unlock()
	}
	return nil
}

// countFile counts writes and syncs on one handle.
type countFile struct {
	fault.File
	fs  *countFS
	log bool
}

func (f *countFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	if f.log {
		f.fs.logNanos.Add(int64(time.Since(t0)))
		f.fs.logWrites.Add(1)
		f.fs.logWriteBytes.Add(int64(n))
	}
	return n, err
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	if f.log {
		f.fs.logNanos.Add(int64(time.Since(t0)))
		f.fs.logSyncs.Add(1)
	}
	return err
}
