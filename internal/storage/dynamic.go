package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// DynamicStore is the durable backing of a mutating graph: a base .egoc
// image plus append-only mutation-log sidecars, fronted by a
// graph.ShardedWriter. Opening replays the log onto the base image and
// resumes the epoch sequence; every publish is WAL-appended and fsynced
// before it becomes visible, so a crash at any point recovers exactly the
// last published snapshot. A background compactor folds the log into the
// base image (reusing Save's atomic temp-file/rename discipline) once the
// log outgrows CompactAtBytes.
//
// The store's shard count is fixed at creation and recorded in the image
// header; the mutation log has one segment per shard (see mutlog.go). An
// unsharded (1-shard) store keeps the historical layout — a single
// <base>.log in the v1 segment format, byte-identical to what the
// pre-sharding code wrote — and existing single-log stores open
// unchanged. A P-shard store persists each epoch across P segment files
// <base>.log.0 … <base>.log.P-1, replays them in parallel on open, and
// compacts all P together.
//
// Every segment header carries the trailing CRC32 of the base image it
// extends. That binding makes crash recovery around compaction
// unambiguous: a crash between the base-image rename and the log swap
// leaves a new image with old segments, which the CRC mismatch identifies
// as stale — their batches are already folded into the image, so they are
// discarded and fresh segments are started at the epoch where they ended.
// The swap is per segment, so the mismatch is resolved per segment too.
type DynamicStore struct {
	fsys     fault.FS
	basePath string
	shards   int
	w        *graph.ShardedWriter

	mu     sync.Mutex // serializes Compact and Close; publishes take the writer's own lock
	log    *Log
	closed bool

	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup

	// CompactAtBytes is the log size that triggers background compaction;
	// <= 0 disables the background compactor (Compact stays available).
	compactAtBytes int64
}

// DefaultCompactAtBytes is the log size at which OpenDynamic's background
// compactor folds the log into the base image.
const DefaultCompactAtBytes = 4 << 20

// MaxShards bounds a dynamic store's shard count (the image header stores
// it in 16 bits).
const MaxShards = 1<<16 - 1

// CreateDynamicSharded initializes a dynamic store at basePath from g,
// partitioned across shards mutation-log lanes: the base image is saved
// atomically, empty mutation logs are created beside it, and the opened
// store is returned. The shard count is recorded in the image header and
// fixed for the store's lifetime; shards <= 1 creates the historical
// unsharded layout. Fails if basePath already exists.
func CreateDynamicSharded(basePath string, g *graph.Graph, shards int) (*DynamicStore, error) {
	return CreateDynamicShardedFS(fault.OS{}, basePath, g, shards)
}

// CreateDynamicShardedFS is CreateDynamicSharded through a filesystem
// seam.
func CreateDynamicShardedFS(fsys fault.FS, basePath string, g *graph.Graph, shards int) (*DynamicStore, error) {
	if shards > MaxShards {
		return nil, fmt.Errorf("storage: shard count %d exceeds %d", shards, MaxShards)
	}
	if _, err := fsys.Stat(basePath); err == nil {
		return nil, fmt.Errorf("storage: %s already exists", basePath)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if err := SaveShardedFS(fsys, basePath, g, shards); err != nil {
		return nil, err
	}
	return OpenDynamicFS(fsys, basePath)
}

// OpenDynamic opens the dynamic store at basePath: the base image is
// materialized, the sidecar log (if any) is replayed onto it — truncating
// a torn tail from a crashed append, discarding a stale log from a
// crashed compaction — and a writer resumes at the recovered epoch. The
// store's layout (unsharded or P-shard) comes from the image header.
// The returned store's background compactor is active with the default
// threshold; tune it with SetCompactAtBytes.
func OpenDynamic(basePath string) (*DynamicStore, error) {
	return OpenDynamicFS(fault.OS{}, basePath)
}

// imageShardCountFS reads just enough of an image header to learn its
// shard count.
func imageShardCountFS(fsys fault.FS, path string) (int, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var buf [10]byte
	if _, err := f.ReadAt(buf[:], 0); err != nil {
		return 0, &CorruptFileError{Path: path, Detail: "header unreadable"}
	}
	for i := range Magic {
		if buf[i] != Magic[i] {
			return 0, &CorruptFileError{Path: path, Detail: fmt.Sprintf("bad magic %q", buf[:6])}
		}
	}
	h := header{Flags: binary.LittleEndian.Uint32(buf[6:])}
	return h.shardCount(), nil
}

// OpenDynamicFS is OpenDynamic through an explicit filesystem seam: the
// chaos harness opens stores over a fault.Injector to drive scripted
// crash, torn-write and errno faults through every recovery path.
func OpenDynamicFS(fsys fault.FS, basePath string) (*DynamicStore, error) {
	g, err := LoadFS(fsys, basePath)
	if err != nil {
		return nil, err
	}
	shards, err := imageShardCountFS(fsys, basePath)
	if err != nil {
		return nil, err
	}
	baseCRC, err := baseImageCRC(fsys, basePath)
	if err != nil {
		return nil, err
	}
	log, err := OpenLogFS(fsys, basePath, baseCRC, shards, func(d graph.Delta) error {
		for _, op := range d.Ops {
			if err := graph.ApplyOp(g, op); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ds := &DynamicStore{
		fsys:           fsys,
		basePath:       basePath,
		shards:         shards,
		log:            log,
		compactCh:      make(chan struct{}, 1),
		done:           make(chan struct{}),
		compactAtBytes: DefaultCompactAtBytes,
	}
	ds.w = graph.NewShardedWriterAt(g, log.LastEpoch(), shards)
	ds.w.SetWAL(log)
	// Nudge the compactor after every publish; the send never blocks the
	// publish path (the channel holds one pending nudge).
	ds.w.Subscribe(func(*graph.Snapshot, graph.Delta) {
		select {
		case ds.compactCh <- struct{}{}:
		default:
		}
	})
	ds.wg.Add(1)
	go ds.compactor()
	return ds, nil
}

// Writer returns the store's single mutation path. Batches published
// through it are durable before they are visible. With one shard the
// whole writer degrades on a failed append; with P shards a failed
// segment degrades only the lane that owns it.
func (ds *DynamicStore) Writer() *graph.ShardedWriter { return ds.w }

// Snapshot returns the current published version (O(1)).
func (ds *DynamicStore) Snapshot() *graph.Snapshot { return ds.w.Snapshot() }

// Shards returns the store's shard count (1 for the unsharded layout).
func (ds *DynamicStore) Shards() int { return ds.shards }

// SetCompactAtBytes adjusts the background compaction threshold; <= 0
// disables background compaction.
func (ds *DynamicStore) SetCompactAtBytes(n int64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.compactAtBytes = n
}

// LogStats reports the mutation log's current shape for monitoring:
// records counts the logged epochs, bytes sums every segment, and
// baseEpoch is the oldest segment's base epoch.
func (ds *DynamicStore) LogStats() (records int, bytes int64, baseEpoch uint64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.log.Records(), ds.log.Size(), ds.log.BaseEpoch()
}

func (ds *DynamicStore) compactor() {
	defer ds.wg.Done()
	for {
		select {
		case <-ds.done:
			return
		case <-ds.compactCh:
			ds.mu.Lock()
			need := !ds.closed && ds.compactAtBytes > 0 && ds.log.Size() >= ds.compactAtBytes
			ds.mu.Unlock()
			if need {
				// Best-effort: a failed background compaction leaves the
				// log growing; the next publish re-nudges.
				_ = ds.Compact()
			}
		}
	}
}

// Compact folds the mutation log into the base image: the current
// snapshot is saved atomically as the new base (with the same shard
// count), then — under the writer's publish barrier, so no batch can slip
// between — fresh empty segments bound to the new image replace the old
// ones. Publishes are briefly blocked during the save; readers never are.
// Crash-safe at every step: the image save and each segment swap are
// temp-file-plus-rename, and stale old segments left by a crash in
// between are detected by their CRC binding on the next open, per
// segment, since the P segment renames cannot be atomic together. If the
// swap fails without a crash, the writer degrades on its next publish
// until a later Compact succeeds (then ShardedWriter.ClearDegraded
// re-admits the held ops).
func (ds *DynamicStore) Compact() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return fmt.Errorf("storage: dynamic store %s is closed", ds.basePath)
	}
	err := ds.w.Barrier(^uint64(0), func(cur *graph.Snapshot, _ []graph.Delta) (graph.WAL, error) {
		if err := SaveShardedFS(ds.fsys, ds.basePath, cur.Graph(), ds.shards); err != nil {
			return nil, err
		}
		// The new image is in place, so the old log now extends an image
		// that is gone: if the fresh log cannot take over, appends to the
		// old one would be discarded as stale on the next open. Detach it,
		// so later publishes fail and degrade the writer instead of being
		// acknowledged and lost; a later successful Compact installs a
		// fresh log.
		nl, err := ds.freshLog(cur.Epoch())
		if err != nil {
			ds.log.detach(err)
			return nil, err
		}
		ds.log.Close()
		ds.log = nl
		return nl, nil
	})
	return err
}

// freshLog creates empty segments bound to the base image on disk, at
// epoch, under a temporary base path and swaps them into place.
func (ds *DynamicStore) freshLog(epoch uint64) (*Log, error) {
	crc, err := baseImageCRC(ds.fsys, ds.basePath)
	if err != nil {
		return nil, err
	}
	nl, err := CreateLogFS(ds.fsys, ds.basePath+".compact", crc, epoch, ds.shards)
	if err != nil {
		return nil, err
	}
	if err := nl.swapInto(ds.basePath); err != nil {
		nl.Close()
		return nil, err
	}
	return nl, nil
}

// Close publishes nothing, stops the background compactor, and releases
// the log. Pending unpublished writer ops are discarded (publish first if
// they matter); everything already published is durable.
func (ds *DynamicStore) Close() error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return nil
	}
	ds.closed = true
	close(ds.done)
	ds.mu.Unlock()
	ds.wg.Wait()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.log.Close()
}
