// Package storage provides the disk-resident graph representation: a
// binary, seekable file format holding label dictionary, adjacency lists,
// edge table and attributes, with a CRC-checked header. The paper's
// prototype ran over a disk-based graph engine (Neo4j); this package plays
// that role for the Go reproduction. Save writes whole graphs; Load and
// Store.Materialize hydrate them with one sequential read per section.
// Store (store.go) also serves single adjacency lists and attribute maps
// on demand through a block cache, without loading the graph.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"path/filepath"
	"slices"
	"sync"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// Magic identifies egocensus graph files (format version 1).
var Magic = [6]byte{'E', 'G', 'O', 'C', 'v', '1'}

const flagDirected = 1

// shardShift positions the shard count in the header's upper Flags bits.
// Unsharded images write 0 there (the historical value), so a 1-shard
// store is byte-identical to the pre-sharding format and old images read
// back as shard count 1.
const shardShift = 16

// header is the fixed-size file header. All integers are little-endian.
type header struct {
	Flags     uint32
	NumNodes  uint64
	NumEdges  uint64
	NumLabels uint32

	LabelTableOff uint64
	NodeLabelOff  uint64
	AdjIndexOff   uint64
	AdjDataOff    uint64
	EdgeTableOff  uint64
	NodeAttrOff   uint64
	EdgeAttrOff   uint64
	CRCOff        uint64 // offset of the trailing CRC32 (== payload size)
}

const headerSize = 6 + 4 + 8 + 8 + 4 + 8*8

func (h *header) directed() bool { return h.Flags&flagDirected != 0 }

// shardCount decodes the image's shard count (1 when unsharded).
func (h *header) shardCount() int {
	if s := int(h.Flags >> shardShift); s > 1 {
		return s
	}
	return 1
}

// blockSize is the encoder's block: the image reaches the file, and the
// CRC, one full block at a time.
const blockSize = 64 << 10

// countingWriter encodes into one block buffer. flush hands a block to the
// file in one Write and to the CRC in one update, and counts its bytes.
// The first error sticks: later calls do nothing, and flush returns it.
type countingWriter struct {
	w   io.Writer
	buf []byte
	n   uint64
	crc uint32
	err error
}

func (cw *countingWriter) flush() error {
	if cw.err == nil && len(cw.buf) > 0 {
		cw.n += uint64(len(cw.buf))
		cw.crc = crc32.Update(cw.crc, crc32.IEEETable, cw.buf)
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
	return cw.err
}

// room flushes the block unless k more bytes fit in it.
func (cw *countingWriter) room(k int) {
	if len(cw.buf)+k > blockSize {
		cw.flush()
	}
}

func (cw *countingWriter) u16(v uint16) {
	cw.room(2)
	cw.buf = binary.LittleEndian.AppendUint16(cw.buf, v)
}

func (cw *countingWriter) u32(v uint32) {
	cw.room(4)
	cw.buf = binary.LittleEndian.AppendUint32(cw.buf, v)
}

func (cw *countingWriter) u64(v uint64) {
	cw.room(8)
	cw.buf = binary.LittleEndian.AppendUint64(cw.buf, v)
}

// str16 writes s behind its uint16 length, in as many blocks as it spans.
func (cw *countingWriter) str16(s string) {
	if len(s) > 0xFFFF {
		if cw.err == nil {
			cw.err = fmt.Errorf("storage: string too long (%d bytes)", len(s))
		}
		return
	}
	cw.u16(uint16(len(s)))
	for {
		k := copy(cw.buf[len(cw.buf):blockSize], s)
		cw.buf = cw.buf[:len(cw.buf)+k]
		if s = s[k:]; s == "" {
			return
		}
		cw.flush()
	}
}

// Save writes g to path in the binary format. The write is atomic: the
// file is assembled in a temporary sibling, fsynced, and renamed over
// path, so a crash mid-save leaves either the old file or the new one —
// never a torn mixture.
func Save(path string, g *graph.Graph) error {
	return SaveFS(fault.OS{}, path, g)
}

// SaveFS is Save through an explicit filesystem seam; tests and the chaos
// harness substitute a fault.Injector to exercise the atomic-save
// recovery paths.
func SaveFS(fsys fault.FS, path string, g *graph.Graph) error {
	return SaveShardedFS(fsys, path, g, 1)
}

// SaveSharded is Save with a shard count recorded in the image header:
// opening the image as a dynamic store later creates (or replays) one
// mutation-log segment per shard. shards <= 1 writes the historical
// unsharded bytes.
func SaveSharded(path string, g *graph.Graph, shards int) error {
	return SaveShardedFS(fault.OS{}, path, g, shards)
}

// SaveShardedFS is SaveFS recording a shard count in the image header.
// The shard count is fixed at store creation: compaction re-saves with
// the same count, and opens reject nothing — the partitioner is derived
// from whatever the header says. shards <= 1 writes the historical
// unsharded header bytes.
func SaveShardedFS(fsys fault.FS, path string, g *graph.Graph, shards int) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".egoc-save-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := writeSharded(tmp, g, shards); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	syncDir(fsys, dir)
	return nil
}

// dirSyncWarn rate-limits the directory-fsync warning to once per
// process: the fallback is deliberate (some filesystems reject directory
// fsync and the data is already durable), but silently dropping the error
// hid genuine fault-injection and disk problems.
var dirSyncWarn sync.Once

// syncDir fsyncs a directory so a just-completed rename is durable.
// Best-effort with the documented lenient-filesystem fallback, but the
// first failure per process is logged instead of silently dropped.
func syncDir(fsys fault.FS, dir string) {
	d, err := fsys.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		dirSyncWarn.Do(func() {
			log.Printf("storage: directory fsync of %s failed (continuing; rename durability relies on the filesystem): %v", dir, err)
		})
	}
}

// writeSharded encodes g to w with the shard count encoded in the header
// flags (counts <= 1 write the historical zero bits). Sections are sized
// first, so the header is written once with final offsets and any Writer
// works.
func writeSharded(w io.Writer, g *graph.Graph, shards int) error {
	cw := &countingWriter{w: w, buf: make([]byte, 0, blockSize)}

	var h header
	if g.Directed() {
		h.Flags |= flagDirected
	}
	if shards > 1 {
		h.Flags |= uint32(shards) << shardShift
	}
	h.NumNodes = uint64(g.NumNodes())
	h.NumEdges = uint64(g.NumEdges())
	h.NumLabels = uint32(g.Labels().Size())

	// The header is written first with final values, so compute section
	// offsets up front by sizing each section.
	labelTableSize := uint64(0)
	for i := 0; i < g.Labels().Size(); i++ {
		labelTableSize += 2 + uint64(len(g.Labels().Name(graph.LabelID(i))))
	}
	nodeLabelSize := 4 * h.NumNodes
	adjIndexSize := 8 * (h.NumNodes + 1)
	adjDataSize := uint64(0)
	for n := 0; n < g.NumNodes(); n++ {
		adjDataSize += 8 // out count + in count
		adjDataSize += 8 * uint64(len(g.Out(graph.NodeID(n))))
		if g.Directed() {
			adjDataSize += 8 * uint64(len(g.In(graph.NodeID(n))))
		}
	}
	edgeTableSize := 8 * h.NumEdges

	// Labels live in the label sections, never in the node attribute maps.
	nodeAttrs := func(i int) map[string]string { return g.NodeAttrMap(graph.NodeID(i)) }
	edgeAttrs := func(i int) map[string]string { return g.EdgeAttrMap(graph.EdgeID(i)) }
	nodeAttrSize, nodeAttrEntries := attrSectionSize(g.NumNodes(), nodeAttrs)
	edgeAttrSize, edgeAttrEntries := attrSectionSize(g.NumEdges(), edgeAttrs)

	h.LabelTableOff = headerSize
	h.NodeLabelOff = h.LabelTableOff + labelTableSize
	h.AdjIndexOff = h.NodeLabelOff + nodeLabelSize
	h.AdjDataOff = h.AdjIndexOff + adjIndexSize
	h.EdgeTableOff = h.AdjDataOff + adjDataSize
	h.NodeAttrOff = h.EdgeTableOff + edgeTableSize
	h.EdgeAttrOff = h.NodeAttrOff + nodeAttrSize
	h.CRCOff = h.EdgeAttrOff + edgeAttrSize

	// Header.
	cw.buf = append(cw.buf, Magic[:]...)
	cw.u32(h.Flags)
	cw.u64(h.NumNodes)
	cw.u64(h.NumEdges)
	cw.u32(h.NumLabels)
	for _, off := range []uint64{h.LabelTableOff, h.NodeLabelOff, h.AdjIndexOff, h.AdjDataOff, h.EdgeTableOff, h.NodeAttrOff, h.EdgeAttrOff, h.CRCOff} {
		cw.u64(off)
	}

	// Label table.
	for i := 0; i < g.Labels().Size(); i++ {
		cw.str16(g.Labels().Name(graph.LabelID(i)))
	}
	// Node labels.
	for n := 0; n < g.NumNodes(); n++ {
		cw.u32(uint32(g.Label(graph.NodeID(n))))
	}
	// Adjacency index: per-node offsets into the adjacency data section,
	// plus a final sentinel.
	off := uint64(0)
	for n := 0; n < g.NumNodes(); n++ {
		cw.u64(off)
		off += 8 + 8*uint64(len(g.Out(graph.NodeID(n))))
		if g.Directed() {
			off += 8 * uint64(len(g.In(graph.NodeID(n))))
		}
	}
	cw.u64(off)
	// Adjacency data.
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		out := g.Out(id)
		var in []graph.Half
		if g.Directed() {
			in = g.In(id)
		}
		cw.u32(uint32(len(out)))
		cw.u32(uint32(len(in)))
		for _, row := range [][]graph.Half{out, in} {
			for _, half := range row {
				cw.u32(uint32(half.To))
				cw.u32(uint32(half.Edge))
			}
		}
	}
	// Edge table.
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		cw.u32(uint32(ed.From))
		cw.u32(uint32(ed.To))
	}
	// Attribute sections.
	cw.attrSection(g.NumNodes(), nodeAttrEntries, nodeAttrs)
	cw.attrSection(g.NumEdges(), edgeAttrEntries, edgeAttrs)
	if err := cw.flush(); err != nil {
		return err
	}
	if cw.n != h.CRCOff {
		return fmt.Errorf("storage: section size accounting error: wrote %d, expected %d", cw.n, h.CRCOff)
	}
	// Trailing CRC over everything written so far.
	_, err := w.Write(binary.LittleEndian.AppendUint32(cw.buf, cw.crc))
	return err
}

// attrSectionSize returns the byte size of an attribute section over n
// objects and its entry count: one entry per object with attributes.
func attrSectionSize(n int, attrs func(i int) map[string]string) (size uint64, entries uint32) {
	size = 4 // entry count
	for i := 0; i < n; i++ {
		m := attrs(i)
		if len(m) == 0 {
			continue
		}
		entries++
		size += 4 + 2 // id + pair count
		for k, v := range m {
			size += 2 + uint64(len(k)) + 2 + uint64(len(v))
		}
	}
	return size, entries
}

// attrSection writes an attribute section: the entry count, then each
// object with attributes in id order, its pairs in key order.
func (cw *countingWriter) attrSection(n int, entries uint32, attrs func(i int) map[string]string) {
	cw.u32(entries)
	var keys []string
	for i := 0; i < n; i++ {
		m := attrs(i)
		if len(m) == 0 {
			continue
		}
		keys = keys[:0]
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		cw.u32(uint32(i))
		cw.u16(uint16(len(keys)))
		for _, k := range keys {
			cw.str16(k)
			cw.str16(m[k])
		}
	}
}

// Load reads a graph file fully into memory.
func Load(path string) (*graph.Graph, error) {
	return LoadFS(fault.OS{}, path)
}

// LoadFS is Load through an explicit filesystem seam.
func LoadFS(fsys fault.FS, path string) (*graph.Graph, error) {
	st, err := OpenFS(fsys, path, DefaultCacheBlocks)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Materialize()
}
