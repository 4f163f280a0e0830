package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// The mutation log is the durability half of the dynamic store: an
// append-only sidecar segment next to a base .egoc image. Each record is
// one published writer batch, framed as
//
//	[u32 payload length][payload][u32 CRC32(payload)]
//
// with a payload of
//
//	u64 epoch, u32 op count, then per op:
//	u8 kind, u32 A, u32 B, str16 key, str16 val
//
// after an 18-byte header: the 6-byte magic "EGOLv1", the u32 trailing
// CRC of the base image this log extends (binding the pair so a log is
// never replayed onto the wrong base), and the u64 base epoch.
//
// Records are fsynced before the writer publishes the batch in memory, so
// the log always covers every published epoch. Replay-on-open therefore
// recovers exactly the last published snapshot; a torn tail (partial
// frame or CRC mismatch on the final record — the signature of a crash
// mid-append) is silently truncated, while structural damage to the
// header or to a CRC-valid record yields a *CorruptFileError like any
// other unsafe file.

// LogMagic identifies egocensus mutation-log files (format version 1).
var LogMagic = [6]byte{'E', 'G', 'O', 'L', 'v', '1'}

const (
	logHeaderSize = 6 + 4 + 8
	// maxLogRecordBytes bounds a single record's payload so a torn or
	// garbage length prefix cannot drive allocations past sanity.
	maxLogRecordBytes = 1 << 28
)

// Log is an open mutation-log segment positioned for appending. It
// implements graph.WAL, so it plugs directly into graph.ShardedWriter.SetWAL.
type Log struct {
	fsys      fault.FS
	path      string
	f         fault.File
	baseCRC   uint32
	baseEpoch uint64

	// mu guards the mutable tail state: appends run under the graph
	// writer's publish lock, but monitoring reads (Size, Records,
	// LastEpoch) arrive from other goroutines.
	mu        sync.Mutex
	lastEpoch uint64
	records   int
	size      int64
	broken    error // sticky failure after an unrecoverable partial append
	buf       []byte
}

// CreateLogFS creates (or truncates) a mutation log at path extending a
// base image with trailing CRC baseCRC, whose state is epoch baseEpoch.
// The header is fsynced before returning.
func CreateLogFS(fsys fault.FS, path string, baseCRC uint32, baseEpoch uint64) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{fsys: fsys, path: path, f: f, baseCRC: baseCRC, baseEpoch: baseEpoch, lastEpoch: baseEpoch}
	var hdr [logHeaderSize]byte
	copy(hdr[:], LogMagic[:])
	binary.LittleEndian.PutUint32(hdr[6:], baseCRC)
	binary.LittleEndian.PutUint64(hdr[10:], baseEpoch)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}
	l.size = logHeaderSize
	return l, nil
}

// OpenLogFS opens an existing mutation log, validates its header against
// the expected base-image CRC, replays every intact record through apply
// (oldest first), truncates any torn tail, and returns the log positioned
// for appending.
//
// A missing file is not an error here — callers decide whether to create
// one. A header that is short, has bad magic, or binds a different base
// image yields *CorruptFileError (the dynamic store intercepts the
// stale-pair case separately via logBaseCRCFS). A CRC-valid record that
// fails to decode, or whose epoch breaks the contiguous sequence, is also
// *CorruptFileError: that is structural damage, not a crash artifact.
func OpenLogFS(fsys fault.FS, path string, baseCRC uint32, apply func(graph.Delta) error) (*Log, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	corrupt := func(format string, args ...any) error {
		return &CorruptFileError{Path: path, Detail: fmt.Sprintf(format, args...)}
	}
	if len(data) < logHeaderSize {
		return nil, corrupt("mutation log shorter than its %d-byte header (%d bytes)", logHeaderSize, len(data))
	}
	if string(data[:6]) != string(LogMagic[:]) {
		return nil, corrupt("bad mutation-log magic %q", data[:6])
	}
	gotCRC := binary.LittleEndian.Uint32(data[6:])
	if gotCRC != baseCRC {
		return nil, corrupt("mutation log extends base image with CRC %08x, not %08x", gotCRC, baseCRC)
	}
	baseEpoch := binary.LittleEndian.Uint64(data[10:])

	deltas, validLen, err := scanLogRecords(path, data[logHeaderSize:], baseEpoch)
	if err != nil {
		return nil, err
	}
	lastEpoch := baseEpoch
	for _, d := range deltas {
		if apply != nil {
			if err := apply(d); err != nil {
				return nil, corrupt("replaying epoch %d: %v", d.Epoch, err)
			}
		}
		lastEpoch = d.Epoch
	}

	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	size := int64(logHeaderSize) + int64(validLen)
	if size < int64(len(data)) {
		// Torn tail from a crash mid-append: drop it so the next append
		// starts at a record boundary.
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{
		fsys:      fsys,
		path:      path,
		f:         f,
		baseCRC:   baseCRC,
		baseEpoch: baseEpoch,
		lastEpoch: lastEpoch,
		records:   len(deltas),
		size:      size,
	}, nil
}

// logBaseCRCFS reads just the base-image binding of the log at path, so
// the dynamic store can detect a stale log (left behind by a crash between
// a compaction's base-image save and its log swap) without replaying it.
// It also scans for the last intact epoch, which bounds the epoch
// sequence a fresh log must resume from.
func logBaseCRCFS(fsys fault.FS, path string) (baseCRC uint32, lastEpoch uint64, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < logHeaderSize || string(data[:6]) != string(LogMagic[:]) {
		return 0, 0, &CorruptFileError{Path: path, Detail: "mutation log header unreadable"}
	}
	baseCRC = binary.LittleEndian.Uint32(data[6:])
	baseEpoch := binary.LittleEndian.Uint64(data[10:])
	deltas, _, err := scanLogRecords(path, data[logHeaderSize:], baseEpoch)
	if err != nil {
		return 0, 0, err
	}
	lastEpoch = baseEpoch
	if n := len(deltas); n > 0 {
		lastEpoch = deltas[n-1].Epoch
	}
	return baseCRC, lastEpoch, nil
}

// scanLogRecords parses the record region, returning the decoded deltas
// and the byte length of the valid prefix. An incomplete final frame or a
// final-frame CRC mismatch ends the scan silently (torn tail); a frame
// that passes its CRC but fails to decode is a *CorruptFileError.
func scanLogRecords(path string, rec []byte, baseEpoch uint64) ([]graph.Delta, int, error) {
	var deltas []graph.Delta
	pos := 0
	prevEpoch := baseEpoch
	for {
		if len(rec)-pos < 4 {
			break // torn or clean end
		}
		plen := int(binary.LittleEndian.Uint32(rec[pos:]))
		if plen > maxLogRecordBytes || len(rec)-pos-4 < plen+4 {
			break // torn tail: length prefix written before the payload survived
		}
		payload := rec[pos+4 : pos+4+plen]
		wantCRC := binary.LittleEndian.Uint32(rec[pos+4+plen:])
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break // torn tail: payload bytes incomplete on disk
		}
		d, err := decodeLogPayload(payload)
		if err != nil {
			return nil, 0, &CorruptFileError{Path: path, Detail: fmt.Sprintf("record %d: %v", len(deltas), err)}
		}
		if d.Epoch != prevEpoch+1 {
			return nil, 0, &CorruptFileError{Path: path, Detail: fmt.Sprintf("record %d: epoch %d breaks sequence after %d", len(deltas), d.Epoch, prevEpoch)}
		}
		prevEpoch = d.Epoch
		deltas = append(deltas, d)
		pos += 4 + plen + 4
	}
	return deltas, pos, nil
}

func decodeLogPayload(p []byte) (graph.Delta, error) {
	var d graph.Delta
	if len(p) < 12 {
		return d, fmt.Errorf("payload shorter than its %d-byte preamble", 12)
	}
	d.Epoch = binary.LittleEndian.Uint64(p)
	count := int(binary.LittleEndian.Uint32(p[8:]))
	p = p[12:]
	// Each op occupies at least 13 bytes, so a count beyond len/13 cannot
	// be satisfied by the payload.
	if count < 0 || count > len(p)/13 {
		return d, fmt.Errorf("op count %d exceeds payload capacity", count)
	}
	d.Ops = make([]graph.Op, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 9 {
			return d, fmt.Errorf("op %d: truncated fixed fields", i)
		}
		op := graph.Op{
			Kind: graph.OpKind(p[0]),
			A:    int32(binary.LittleEndian.Uint32(p[1:])),
			B:    int32(binary.LittleEndian.Uint32(p[5:])),
		}
		if op.Kind < graph.OpAddNode || op.Kind > graph.OpSetEdgeAttr {
			return d, fmt.Errorf("op %d: unknown kind %d", i, op.Kind)
		}
		p = p[9:]
		var err error
		if op.Key, p, err = takeStr16(p); err != nil {
			return d, fmt.Errorf("op %d key: %w", i, err)
		}
		if op.Val, p, err = takeStr16(p); err != nil {
			return d, fmt.Errorf("op %d val: %w", i, err)
		}
		d.Ops = append(d.Ops, op)
	}
	if len(p) != 0 {
		return d, fmt.Errorf("%d trailing bytes after %d ops", len(p), count)
	}
	return d, nil
}

func takeStr16(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("truncated length")
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p)-2 < n {
		return "", nil, fmt.Errorf("string of %d bytes overruns payload", n)
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

// AppendBatch encodes ops as the next epoch's record, appends it, and
// fsyncs before returning — this is the graph.WAL hook, called by
// graph.ShardedWriter.Publish before the batch becomes visible in memory. On a
// write failure the partial frame is truncated away (and the file offset
// rewound to the record boundary, so a retried append never leaves a
// zero-filled hole behind a torn prefix); if even that fails the log
// marks itself broken and refuses further appends rather than risk a
// malformed middle.
//
// Failures are classified for the writer's retry policy: conditions that
// can clear (ENOSPC and friends) come back as *TransientError once the
// log is restored to a clean record boundary, everything else — including
// any failure to restore the boundary — is permanent.
func (l *Log) AppendBatch(ops []graph.Op) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("storage: mutation log %s unusable after write failure: %w", l.path, l.broken)
	}
	epoch := l.lastEpoch + 1
	l.buf = appendLogRecord(l.buf[:0], epoch, ops)
	if _, err := l.f.Write(l.buf); err != nil {
		return l.rewind("wal append", err)
	}
	if err := l.f.Sync(); err != nil {
		return l.rewind("wal sync", err)
	}
	l.lastEpoch = epoch
	l.records++
	l.size += int64(len(l.buf))
	return nil
}

// rewind restores the log to its last durable record boundary after a
// failed append: the partial frame is truncated away and the write offset
// rewound. Success makes the original failure safely retryable (returned
// classified); failure marks the log broken and returns a permanent
// error.
func (l *Log) rewind(op string, cause error) error {
	if err := l.f.Truncate(l.size); err != nil {
		l.broken = err
		return fmt.Errorf("storage: %s failed (%v) and the partial frame could not be truncated: %w", op, cause, err)
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.broken = err
		return fmt.Errorf("storage: %s failed (%v) and the log offset could not be rewound: %w", op, cause, err)
	}
	return classifyIO(op, l.path, cause)
}

// appendLogRecord frames one batch: length, payload, payload CRC.
func appendLogRecord(b []byte, epoch uint64, ops []graph.Op) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length placeholder
	p0 := len(b)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for _, op := range ops {
		b = append(b, byte(op.Kind))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.A))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.B))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(op.Key)))
		b = append(b, op.Key...)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(op.Val)))
		b = append(b, op.Val...)
	}
	payload := b[p0:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// BaseEpoch returns the epoch of the base image this log extends.
func (l *Log) BaseEpoch() uint64 { return l.baseEpoch }

// LastEpoch returns the epoch of the newest appended record (BaseEpoch
// when the log is empty).
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastEpoch
}

// Records returns the number of intact records.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Size returns the log's on-disk size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close releases the log's file handle.
func (l *Log) Close() error { return l.f.Close() }

// baseImageCRC reads the trailing CRC32 of a .egoc base image, the value
// a sidecar log's header must match.
func baseImageCRC(fsys fault.FS, path string) (uint32, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if fi.Size() < 4 {
		return 0, &CorruptFileError{Path: path, Detail: "file too small to carry a trailing CRC"}
	}
	var b [4]byte
	if _, err := f.ReadAt(b[:], fi.Size()-4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// renameLogInto atomically replaces dst with the log's current file: the
// log must have been created at a temporary sibling path. After the
// rename the open handle keeps appending to the same inode, now visible
// at dst.
func (l *Log) renameLogInto(dst string) error {
	if err := l.fsys.Rename(l.path, dst); err != nil {
		return err
	}
	l.path = dst
	syncDir(l.fsys, filepath.Dir(dst))
	return nil
}
