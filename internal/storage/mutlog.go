package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// The mutation log is the durability half of the dynamic store: one
// append-only segment file per shard next to a base .egoc image —
// <base>.log for a one-shard store, <base>.log.0 … <base>.log.P-1 for a
// P-shard one. Each published epoch is persisted as up to P segment
// records, one per shard that had ops, every record framed as
//
//	[u32 payload length][payload][u32 CRC32(payload)]
//
// Two segment formats share that frame, chosen by the shard count. A
// one-shard store writes v1, byte-identical to the pre-sharding log:
//
//	header (18 bytes): magic "EGOLv1", u32 base-image CRC, u64 base epoch
//	payload: u64 epoch, u32 count, then per op:
//	         u8 kind, u32 A, u32 B, str16 key, str16 val
//
// A P-shard store writes v2, whose totals and batch indexes make
// cross-segment reassembly and torn multi-segment appends detectable:
//
//	header (26 bytes): magic "EGOLv2", u32 base-image CRC, u64 base epoch,
//	                   u32 shard, u32 shard count
//	payload: u64 epoch, u32 totalOps (whole epoch, all segments),
//	         u32 count (this segment), then per op:
//	         u32 batch index, u8 kind, u32 A, u32 B, str16 key, str16 val
//
// A v1 record decodes as a v2 record whose epoch total is its own count
// and whose batch indexes are its op positions, so only the codec
// (segFormat) tells the formats apart.
//
// The header's base-image CRC binds a segment to the image it extends, so
// a log is never replayed onto the wrong base. Records are fsynced before
// the writer publishes the batch in memory, so the log always covers every
// published epoch and replay-on-open recovers exactly the last published
// snapshot. Within a segment epochs are strictly increasing but may skip
// (a shard with no ops in an epoch writes nothing; a degraded shard is
// routed around entirely). A torn final frame (partial frame or CRC
// mismatch — a crash mid-append) is silently truncated; a crash between
// segment fsyncs leaves the newest epoch incomplete, which replay detects
// by summing the per-segment counts against totalOps and truncates from
// every segment. Structural damage — an unreadable header, a CRC-valid
// record that fails to decode, an incomplete older epoch, a broken epoch
// sequence — yields a *CorruptFileError like any other unsafe file.

// LogMagic identifies v1 mutation-log segments (one-shard stores).
var LogMagic = [6]byte{'E', 'G', 'O', 'L', 'v', '1'}

// ShardLogMagic identifies v2 mutation-log segments (P-shard stores).
var ShardLogMagic = [6]byte{'E', 'G', 'O', 'L', 'v', '2'}

const (
	// maxLogRecordBytes bounds a single record's payload so a torn or
	// garbage length prefix cannot drive allocations past sanity.
	maxLogRecordBytes = 1 << 28
	// maxLogString is the longest key or value a str16 field can carry.
	maxLogString = 1<<16 - 1
)

// segFormat is a segment's on-disk format. It is fixed by the store's
// shard count, and only the codec methods below read it.
type segFormat uint8

const (
	formatV1 segFormat = iota + 1 // one-shard store
	formatV2                      // P-shard store
)

func formatFor(shards int) segFormat {
	if shards == 1 {
		return formatV1
	}
	return formatV2
}

// headerSize is the segment header's byte length.
func (f segFormat) headerSize() int {
	if f == formatV1 {
		return 6 + 4 + 8
	}
	return 6 + 4 + 8 + 4 + 4
}

// header encodes a segment header.
func (f segFormat) header(baseCRC uint32, baseEpoch uint64, shard, shards int) []byte {
	hdr := make([]byte, f.headerSize())
	copy(hdr, LogMagic[:])
	if f == formatV2 {
		copy(hdr, ShardLogMagic[:])
		binary.LittleEndian.PutUint32(hdr[18:], uint32(shard))
		binary.LittleEndian.PutUint32(hdr[22:], uint32(shards))
	}
	binary.LittleEndian.PutUint32(hdr[6:], baseCRC)
	binary.LittleEndian.PutUint64(hdr[10:], baseEpoch)
	return hdr
}

// parseHeader validates a segment header (magic, and the shard index in
// v2) and returns the base-image CRC and base epoch it binds.
func (f segFormat) parseHeader(path string, data []byte, shard int) (baseCRC uint32, baseEpoch uint64, err error) {
	magic := LogMagic
	if f == formatV2 {
		magic = ShardLogMagic
	}
	if len(data) < f.headerSize() || string(data[:6]) != string(magic[:]) {
		return 0, 0, &CorruptFileError{Path: path, Detail: "segment header unreadable"}
	}
	if f == formatV2 {
		if got := int(binary.LittleEndian.Uint32(data[18:])); got != shard {
			return 0, 0, &CorruptFileError{Path: path, Detail: fmt.Sprintf("segment claims shard %d, expected %d", got, shard)}
		}
	}
	return binary.LittleEndian.Uint32(data[6:]), binary.LittleEndian.Uint64(data[10:]), nil
}

// appendRecord frames one shard's slice of an epoch. It refuses the part
// before producing a byte the log could not replay: a v1 segment holds
// whole epochs only, and a str16 field holds at most maxLogString bytes.
func (f segFormat) appendRecord(b []byte, epoch uint64, totalOps int, p *graph.ShardBatch) ([]byte, error) {
	if f == formatV1 && totalOps != len(p.Ops) {
		return b, fmt.Errorf("storage: a v1 segment holds whole epochs, not %d of %d ops", len(p.Ops), totalOps)
	}
	for i, op := range p.Ops {
		if n := max(len(op.Key), len(op.Val)); n > maxLogString {
			return b, fmt.Errorf("storage: op %d of the batch (kind %d on %d) carries a %d-byte string, past the log's %d-byte limit",
				p.Index[i], op.Kind, op.A, n, maxLogString)
		}
	}
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length placeholder
	p0 := len(b)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	if f == formatV2 {
		b = binary.LittleEndian.AppendUint32(b, uint32(totalOps))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Ops)))
	for i, op := range p.Ops {
		if f == formatV2 {
			b = binary.LittleEndian.AppendUint32(b, p.Index[i])
		}
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
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload)), nil
}

// segRecord is one decoded segment record plus its frame's byte range.
type segRecord struct {
	epoch    uint64
	totalOps int
	index    []uint32
	ops      []graph.Op
	start    int // offset of the frame within the record region
	end      int
}

// decodePayload decodes one CRC-valid record payload.
func (f segFormat) decodePayload(p []byte) (segRecord, error) {
	var r segRecord
	// pre is the preamble's length; fixed is each op's length ahead of its
	// two strings.
	pre, fixed := 16, 13
	if f == formatV1 {
		pre, fixed = 12, 9
	}
	if len(p) < pre {
		return r, fmt.Errorf("payload shorter than its %d-byte preamble", pre)
	}
	r.epoch = binary.LittleEndian.Uint64(p)
	count := int(binary.LittleEndian.Uint32(p[pre-4:]))
	r.totalOps = count
	if f == formatV2 {
		r.totalOps = int(binary.LittleEndian.Uint32(p[8:]))
	}
	p = p[pre:]
	// Each op occupies at least its fixed fields plus two empty strings,
	// bounding count by the payload size.
	if count < 0 || count > len(p)/(fixed+4) {
		return r, fmt.Errorf("op count %d exceeds payload capacity", count)
	}
	if r.totalOps < count {
		return r, fmt.Errorf("segment count %d exceeds epoch total %d", count, r.totalOps)
	}
	r.index = make([]uint32, 0, count)
	r.ops = make([]graph.Op, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < fixed {
			return r, fmt.Errorf("op %d: truncated fixed fields", i)
		}
		idx := uint32(i)
		if f == formatV2 {
			idx = binary.LittleEndian.Uint32(p)
			p = p[4:]
		}
		if int(idx) >= r.totalOps {
			return r, fmt.Errorf("op %d: batch index %d out of range [0,%d)", i, idx, r.totalOps)
		}
		op := graph.Op{
			Kind: graph.OpKind(p[0]),
			A:    int32(binary.LittleEndian.Uint32(p[1:])),
			B:    int32(binary.LittleEndian.Uint32(p[5:])),
		}
		if op.Kind < graph.OpAddNode || op.Kind > graph.OpSetEdgeAttr {
			return r, fmt.Errorf("op %d: unknown kind %d", i, op.Kind)
		}
		p = p[9:]
		var err error
		if op.Key, p, err = takeStr16(p); err != nil {
			return r, fmt.Errorf("op %d key: %w", i, err)
		}
		if op.Val, p, err = takeStr16(p); err != nil {
			return r, fmt.Errorf("op %d val: %w", i, err)
		}
		r.index = append(r.index, idx)
		r.ops = append(r.ops, op)
	}
	if len(p) != 0 {
		return r, fmt.Errorf("%d trailing bytes after %d ops", len(p), count)
	}
	return r, nil
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

// scanRecords parses a segment's record region: an incomplete or
// CRC-failing final frame ends the scan silently (torn tail); structural
// damage in a CRC-valid record is corruption. Epochs must be strictly
// increasing and past the segment's base epoch, but may skip.
func (f segFormat) scanRecords(path string, rec []byte, baseEpoch uint64) ([]segRecord, int, error) {
	var out []segRecord
	pos := 0
	prev := baseEpoch
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
		r, err := f.decodePayload(payload)
		if err != nil {
			return nil, 0, &CorruptFileError{Path: path, Detail: fmt.Sprintf("record %d: %v", len(out), err)}
		}
		if r.epoch <= prev {
			return nil, 0, &CorruptFileError{Path: path, Detail: fmt.Sprintf("record %d: epoch %d not after %d", len(out), r.epoch, prev)}
		}
		prev = r.epoch
		r.start, r.end = pos, pos+4+plen+4
		out = append(out, r)
		pos = r.end
	}
	return out, pos, nil
}

// segPath returns shard i's segment path for a store at basePath.
func segPath(basePath string, shard, shards int) string {
	if shards == 1 {
		return basePath + ".log"
	}
	return fmt.Sprintf("%s.log.%d", basePath, shard)
}

// logName names the whole segment set in errors that span segments.
func logName(basePath string, shards int) string {
	if shards == 1 {
		return basePath + ".log"
	}
	return basePath + ".log.*"
}

// logSegment is one shard's open segment, positioned for appending.
type logSegment struct {
	path      string
	f         fault.File
	shard     int
	baseEpoch uint64
	size      int64
	broken    error // sticky failure after an unrecoverable partial append
	buf       []byte
	err       error // the current append's write or sync failure
}

// Log is an open mutation log: the segments of a P-shard store (one for
// an unsharded store), positioned for appending. It implements graph.WAL:
// AppendShardBatch persists one epoch across the segments, restoring
// every segment's record boundary if any of them fails so the epoch is
// retryable, and identifying the failing shard so the writer degrades
// only that lane.
type Log struct {
	fsys     fault.FS
	basePath string
	baseCRC  uint32
	format   segFormat

	// mu guards the mutable state: appends run under the graph writer's
	// publish lock, but monitoring reads (Size, Records, LastEpoch) and
	// compaction arrive from other goroutines.
	mu        sync.Mutex
	segs      []*logSegment
	lastEpoch uint64
	records   int // intact epochs
	size      int64
	// detached is set when a compaction saved a new base image but could
	// not swap in the log bound to it: appends here would be discarded as
	// stale on the next open, so every append fails permanently instead.
	detached error
}

// CreateLogFS creates fresh (truncated) segments for every shard of a
// store at basePath, extending a base image with trailing CRC baseCRC
// whose state is epoch baseEpoch. Every header is fsynced before
// returning. Compaction creates the segments under a temporary basePath
// and swaps them into place.
func CreateLogFS(fsys fault.FS, basePath string, baseCRC uint32, baseEpoch uint64, shards int) (*Log, error) {
	l := &Log{fsys: fsys, basePath: basePath, baseCRC: baseCRC, format: formatFor(shards), lastEpoch: baseEpoch}
	for s := 0; s < shards; s++ {
		seg, err := l.createSegment(s, shards, baseEpoch)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.segs = append(l.segs, seg)
		l.size += seg.size
	}
	return l, nil
}

func (l *Log) createSegment(shard, shards int, baseEpoch uint64) (*logSegment, error) {
	path := segPath(l.basePath, shard, shards)
	f, err := l.fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := l.format.header(l.baseCRC, baseEpoch, shard, shards)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		l.fsys.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		l.fsys.Remove(path)
		return nil, err
	}
	return &logSegment{path: path, f: f, shard: shard, baseEpoch: baseEpoch, size: int64(len(hdr))}, nil
}

// segScan is one segment's open-time scan result.
type segScan struct {
	shard     int
	state     int // segGood, segStale, segMissing
	baseEpoch uint64
	lastSeen  uint64 // newest epoch seen (stale segments too)
	records   []segRecord
	validLen  int // valid record-region bytes (good segments)
	data      []byte
}

const (
	segGood = iota
	segStale
	segMissing
)

// OpenLogFS opens the segment set of a P-shard store at basePath,
// replaying every complete epoch through apply in publish order, and
// returns the log positioned for appending. Recovery semantics, per
// segment and across them:
//
//   - A torn final frame in a segment (crash mid-append) is truncated.
//   - The newest epoch incomplete across segments (crash between segment
//     fsyncs — the op counts don't sum to its recorded total) is a torn
//     multi-segment append: never published, its records are truncated
//     from every segment. An incomplete older epoch is corruption.
//   - A segment whose header binds a different base image is stale (a
//     compaction crashed between the image rename and the segment swap):
//     its batches are already folded into the image, so it is discarded
//     and recreated empty, with the epoch sequence resuming past
//     everything seen.
//   - A missing segment file is recreated empty the same way.
func OpenLogFS(fsys fault.FS, basePath string, baseCRC uint32, shards int, apply func(graph.Delta) error) (*Log, error) {
	format := formatFor(shards)
	scans := make([]*segScan, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	wg.Add(shards)
	// Parallel replay-on-open, phase one: every segment is read, CRC-checked
	// and decoded concurrently; only the cross-segment merge is sequential.
	for s := 0; s < shards; s++ {
		go func() {
			defer wg.Done()
			scans[s], errs[s] = format.scanFile(fsys, segPath(basePath, s, shards), baseCRC, s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	name := logName(basePath, shards)

	// Merge the good segments' records into per-epoch batches.
	type epochParts struct {
		totalOps int
		have     int
		recs     []*segRecord
		shards   []int
	}
	byEpoch := map[uint64]*epochParts{}
	minGoodBase := uint64(0)
	haveGood := false
	resume := uint64(0)
	for _, sc := range scans {
		if sc.state != segGood {
			// A stale segment's epoch watermark survives even though its
			// records are discarded: after a compaction crash with no
			// segment swapped yet, it is the only evidence of the epoch
			// the new image already folded in.
			resume = max(resume, sc.lastSeen)
			continue
		}
		// Good segments contribute only their base epoch here; their
		// replayed epochs raise resume below, AFTER a torn newest epoch
		// (complete in this segment, torn in a sibling) is dropped.
		if !haveGood || sc.baseEpoch < minGoodBase {
			minGoodBase = sc.baseEpoch
		}
		haveGood = true
		resume = max(resume, sc.baseEpoch)
		for i := range sc.records {
			r := &sc.records[i]
			ep := byEpoch[r.epoch]
			if ep == nil {
				ep = &epochParts{totalOps: r.totalOps}
				byEpoch[r.epoch] = ep
			} else if ep.totalOps != r.totalOps {
				return nil, &CorruptFileError{Path: segPath(basePath, sc.shard, shards),
					Detail: fmt.Sprintf("epoch %d records disagree on total op count (%d vs %d)", r.epoch, r.totalOps, ep.totalOps)}
			}
			ep.have += len(r.ops)
			ep.recs = append(ep.recs, r)
			ep.shards = append(ep.shards, sc.shard)
		}
	}
	epochs := make([]uint64, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })

	// Drop a torn newest epoch; reject holes anywhere else.
	if n := len(epochs); n > 0 {
		if last := byEpoch[epochs[n-1]]; last.have < last.totalOps {
			for i, r := range last.recs {
				sc := scans[last.shards[i]]
				if r.end != sc.validLen {
					return nil, &CorruptFileError{Path: segPath(basePath, last.shards[i], shards),
						Detail: fmt.Sprintf("incomplete epoch %d is not the segment tail", epochs[n-1])}
				}
				sc.validLen = r.start
			}
			delete(byEpoch, epochs[n-1])
			epochs = epochs[:n-1]
		}
	}
	for i, e := range epochs {
		ep := byEpoch[e]
		if ep.have != ep.totalOps {
			return nil, &CorruptFileError{Path: name,
				Detail: fmt.Sprintf("epoch %d holds %d of %d ops", e, ep.have, ep.totalOps)}
		}
		if want := minGoodBase + 1 + uint64(i); e != want {
			return nil, &CorruptFileError{Path: name,
				Detail: fmt.Sprintf("epoch %d breaks sequence (expected %d)", e, want)}
		}
		resume = max(resume, e)
	}

	// Replay complete epochs in order, reassembling publish order from the
	// batch indexes.
	for _, e := range epochs {
		ep := byEpoch[e]
		ops := make([]graph.Op, ep.totalOps)
		seen := make([]bool, ep.totalOps)
		for _, r := range ep.recs {
			for i, op := range r.ops {
				idx := r.index[i]
				if seen[idx] {
					return nil, &CorruptFileError{Path: name,
						Detail: fmt.Sprintf("epoch %d: duplicate batch index %d", e, idx)}
				}
				seen[idx] = true
				ops[idx] = op
			}
		}
		if apply != nil {
			if err := apply(graph.Delta{Epoch: e, Ops: ops}); err != nil {
				return nil, &CorruptFileError{Path: name, Detail: fmt.Sprintf("replaying epoch %d: %v", e, err)}
			}
		}
	}

	// Open good segments for appending (truncating torn tails), recreate
	// stale and missing ones bound to the current image at the resume
	// epoch.
	l := &Log{fsys: fsys, basePath: basePath, baseCRC: baseCRC, format: format, lastEpoch: resume, records: len(epochs)}
	for _, sc := range scans {
		var seg *logSegment
		var err error
		if sc.state == segGood {
			seg, err = l.openSegmentTail(segPath(basePath, sc.shard, shards), sc)
		} else {
			seg, err = l.createSegment(sc.shard, shards, resume)
		}
		if err != nil {
			l.Close()
			return nil, err
		}
		l.segs = append(l.segs, seg)
		l.size += seg.size
	}
	return l, nil
}

// scanFile reads and classifies one segment file.
func (f segFormat) scanFile(fsys fault.FS, path string, baseCRC uint32, shard int) (*segScan, error) {
	sc := &segScan{shard: shard}
	data, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		sc.state = segMissing
		return sc, nil
	}
	if err != nil {
		return nil, err
	}
	gotCRC, baseEpoch, err := f.parseHeader(path, data, shard)
	if err != nil {
		return nil, err
	}
	records, validLen, err := f.scanRecords(path, data[f.headerSize():], baseEpoch)
	if err != nil {
		return nil, err
	}
	sc.baseEpoch, sc.records, sc.validLen, sc.data = baseEpoch, records, validLen, data
	sc.lastSeen = baseEpoch
	if n := len(records); n > 0 {
		sc.lastSeen = records[n-1].epoch
	}
	if gotCRC != baseCRC {
		sc.state = segStale
		sc.records = nil
		return sc, nil
	}
	sc.state = segGood
	return sc, nil
}

// openSegmentTail opens a good segment for appending, truncating
// everything past its valid record region.
func (l *Log) openSegmentTail(path string, sc *segScan) (*logSegment, error) {
	f, err := l.fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	size := int64(l.format.headerSize()) + int64(sc.validLen)
	if size < int64(len(sc.data)) {
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
	return &logSegment{path: path, f: f, shard: sc.shard, baseEpoch: sc.baseEpoch, size: size}, nil
}

// shardSegmentError wires a segment failure to the writer's per-shard
// degraded mode: graph.ShardedWriter extracts FailedShard and degrades
// only that lane. Transience classification passes through Unwrap.
type shardSegmentError struct {
	shard int
	err   error
}

func (e *shardSegmentError) Error() string {
	return fmt.Sprintf("storage: shard %d segment: %v", e.shard, e.err)
}
func (e *shardSegmentError) Unwrap() error    { return e.err }
func (e *shardSegmentError) FailedShard() int { return e.shard }

// AppendShardBatch implements graph.WAL: one epoch's per-shard records
// are encoded, written and fsynced — in parallel when more than one shard
// has ops, on the calling goroutine otherwise — and the epoch advances
// only if every segment append succeeds. A part the codec refuses fails
// the epoch before any byte is written. On a write or sync failure every
// touched segment is rewound to its prior record boundary (truncate the
// partial frame and rewind the offset, so a retry never leaves a
// zero-filled hole behind a torn prefix), so the whole epoch is
// retryable; the returned error carries the failing shard. Conditions
// that can clear (ENOSPC and friends) come back as *TransientError once
// the boundary is restored; everything else — including a failure to
// restore the boundary, which marks the segment broken — is permanent.
func (l *Log) AppendShardBatch(parts []graph.ShardBatch, totalOps int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.detached != nil {
		return fmt.Errorf("storage: mutation log %s no longer extends the base image: %w", logName(l.basePath, len(l.segs)), l.detached)
	}
	epoch := l.lastEpoch + 1
	for i := range parts {
		p := &parts[i]
		if p.Shard < 0 || p.Shard >= len(l.segs) {
			return fmt.Errorf("storage: shard %d out of range [0,%d)", p.Shard, len(l.segs))
		}
		seg := l.segs[p.Shard]
		if seg.broken != nil {
			return &shardSegmentError{shard: p.Shard, err: fmt.Errorf("segment unusable after write failure: %w", seg.broken)}
		}
		var err error
		if seg.buf, err = l.format.appendRecord(seg.buf[:0], epoch, totalOps, p); err != nil {
			return &shardSegmentError{shard: p.Shard, err: err}
		}
	}
	if len(parts) == 1 {
		l.segs[parts[0].Shard].write()
	} else {
		var wg sync.WaitGroup
		wg.Add(len(parts))
		for _, p := range parts {
			seg := l.segs[p.Shard]
			go func() {
				defer wg.Done()
				seg.write()
			}()
		}
		wg.Wait()
	}

	var failed *logSegment
	for _, p := range parts {
		if seg := l.segs[p.Shard]; seg.err != nil {
			failed = seg
			break
		}
	}
	if failed == nil {
		l.lastEpoch = epoch
		l.records++
		for _, p := range parts {
			seg := l.segs[p.Shard]
			seg.size += int64(len(seg.buf))
			l.size += int64(len(seg.buf))
		}
		return nil
	}
	// Rewind every touched segment — including the ones that succeeded —
	// so a retry (or a routed-around publish) starts every segment at a
	// clean record boundary.
	for _, p := range parts {
		l.segs[p.Shard].rewind()
	}
	if failed.broken != nil {
		return &shardSegmentError{shard: failed.shard, err: fmt.Errorf("append failed (%v) and the boundary could not be restored: %w", failed.err, failed.broken)}
	}
	return &shardSegmentError{shard: failed.shard, err: classifyIO("wal segment append", failed.path, failed.err)}
}

// write writes and fsyncs the segment's encoded record, leaving the
// outcome in seg.err.
func (seg *logSegment) write() {
	if _, seg.err = seg.f.Write(seg.buf); seg.err == nil {
		seg.err = seg.f.Sync()
	}
}

// rewind restores a segment to its last durable record boundary after a
// failed (or aborted) append. Failure marks the segment broken.
func (seg *logSegment) rewind() {
	if err := seg.f.Truncate(seg.size); err != nil {
		seg.broken = err
		return
	}
	if _, err := seg.f.Seek(seg.size, io.SeekStart); err != nil {
		seg.broken = err
	}
}

// swapInto atomically moves every segment file to the segment paths of
// dst (the store base path), replacing what is there. Used by compaction:
// the segments must have been created under a temporary base path in the
// same directory. Renames happen shard by shard; a crash mid-way leaves a
// mix of old (stale, CRC-bound to the previous image) and new segments,
// which the next open resolves per segment. On a failed rename the
// segments not yet moved are removed; the moved ones are live and stay.
func (l *Log) swapInto(dst string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, seg := range l.segs {
		to := segPath(dst, seg.shard, len(l.segs))
		if err := l.fsys.Rename(seg.path, to); err != nil {
			for _, rest := range l.segs[i:] {
				l.fsys.Remove(rest.path)
			}
			return err
		}
		seg.path = to
	}
	l.basePath = dst
	syncDir(l.fsys, filepath.Dir(dst))
	return nil
}

// detach marks the log as no longer bound to the store's base image (see
// Log.detached).
func (l *Log) detach(cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.detached = cause
}

// LastEpoch returns the newest appended epoch (the base epoch when every
// segment is empty).
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastEpoch
}

// BaseEpoch returns the epoch the segment set resumes from: the minimum
// of the per-segment base epochs.
func (l *Log) BaseEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	base := uint64(0)
	for i, seg := range l.segs {
		if i == 0 || seg.baseEpoch < base {
			base = seg.baseEpoch
		}
	}
	return base
}

// Records returns the number of intact epochs in the log.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Size returns the combined on-disk size of every segment.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close releases every segment's file handle.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, seg := range l.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// baseImageCRC reads the trailing CRC32 of a .egoc base image, the value
// a log segment's header must match.
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
