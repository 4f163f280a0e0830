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
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"path/filepath"
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

// countingWriter tracks the number of bytes written and feeds the CRC.
type countingWriter struct {
	w   *bufio.Writer
	n   uint64
	crc uint32
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += uint64(n)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (cw *countingWriter) u16(v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	_, err := cw.Write(b[:])
	return err
}

func (cw *countingWriter) u32(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := cw.Write(b[:])
	return err
}

func (cw *countingWriter) u64(v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := cw.Write(b[:])
	return err
}

func (cw *countingWriter) str16(s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("storage: string too long (%d bytes)", len(s))
	}
	if err := cw.u16(uint16(len(s))); err != nil {
		return err
	}
	_, err := cw.Write([]byte(s))
	return err
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

// Write encodes g to w. w must also be an io.Seeker if the caller wants a
// valid header; Write buffers sections in memory offsets and writes
// front-to-back, so any Writer works.
func Write(w io.Writer, g *graph.Graph) error {
	return writeSharded(w, g, 1)
}

// writeSharded is Write with the shard count encoded in the header flags
// (counts <= 1 write the historical zero bits).
func writeSharded(w io.Writer, g *graph.Graph, shards int) error {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}

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

	nodeAttrSize, nodeAttrEntries := attrSectionSize(g.NumNodes(), func(i int) map[string]string {
		m := g.NodeAttrs(graph.NodeID(i))
		delete(m, graph.LabelAttr) // labels live in the label sections
		return m
	})
	edgeAttrSize, edgeAttrEntries := attrSectionSize(g.NumEdges(), func(i int) map[string]string {
		return g.EdgeAttrs(graph.EdgeID(i))
	})

	h.LabelTableOff = headerSize
	h.NodeLabelOff = h.LabelTableOff + labelTableSize
	h.AdjIndexOff = h.NodeLabelOff + nodeLabelSize
	h.AdjDataOff = h.AdjIndexOff + adjIndexSize
	h.EdgeTableOff = h.AdjDataOff + adjDataSize
	h.NodeAttrOff = h.EdgeTableOff + edgeTableSize
	h.EdgeAttrOff = h.NodeAttrOff + nodeAttrSize
	h.CRCOff = h.EdgeAttrOff + edgeAttrSize

	// Header.
	if _, err := cw.Write(Magic[:]); err != nil {
		return err
	}
	for _, v32 := range []uint32{h.Flags} {
		if err := cw.u32(v32); err != nil {
			return err
		}
	}
	if err := cw.u64(h.NumNodes); err != nil {
		return err
	}
	if err := cw.u64(h.NumEdges); err != nil {
		return err
	}
	if err := cw.u32(h.NumLabels); err != nil {
		return err
	}
	for _, off := range []uint64{h.LabelTableOff, h.NodeLabelOff, h.AdjIndexOff, h.AdjDataOff, h.EdgeTableOff, h.NodeAttrOff, h.EdgeAttrOff, h.CRCOff} {
		if err := cw.u64(off); err != nil {
			return err
		}
	}

	// Label table.
	for i := 0; i < g.Labels().Size(); i++ {
		if err := cw.str16(g.Labels().Name(graph.LabelID(i))); err != nil {
			return err
		}
	}
	// Node labels.
	for n := 0; n < g.NumNodes(); n++ {
		if err := cw.u32(uint32(g.Label(graph.NodeID(n)))); err != nil {
			return err
		}
	}
	// Adjacency index: per-node offsets into the adjacency data section,
	// plus a final sentinel.
	off := uint64(0)
	for n := 0; n < g.NumNodes(); n++ {
		if err := cw.u64(off); err != nil {
			return err
		}
		off += 8 + 8*uint64(len(g.Out(graph.NodeID(n))))
		if g.Directed() {
			off += 8 * uint64(len(g.In(graph.NodeID(n))))
		}
	}
	if err := cw.u64(off); err != nil {
		return err
	}
	// Adjacency data.
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		out := g.Out(id)
		var in []graph.Half
		if g.Directed() {
			in = g.In(id)
		}
		if err := cw.u32(uint32(len(out))); err != nil {
			return err
		}
		if err := cw.u32(uint32(len(in))); err != nil {
			return err
		}
		for _, half := range out {
			if err := cw.u32(uint32(half.To)); err != nil {
				return err
			}
			if err := cw.u32(uint32(half.Edge)); err != nil {
				return err
			}
		}
		for _, half := range in {
			if err := cw.u32(uint32(half.To)); err != nil {
				return err
			}
			if err := cw.u32(uint32(half.Edge)); err != nil {
				return err
			}
		}
	}
	// Edge table.
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if err := cw.u32(uint32(ed.From)); err != nil {
			return err
		}
		if err := cw.u32(uint32(ed.To)); err != nil {
			return err
		}
	}
	// Attribute sections.
	if err := writeAttrSection(cw, nodeAttrEntries); err != nil {
		return err
	}
	if err := writeAttrSection(cw, edgeAttrEntries); err != nil {
		return err
	}
	if cw.n != h.CRCOff {
		return fmt.Errorf("storage: section size accounting error: wrote %d, expected %d", cw.n, h.CRCOff)
	}
	// Trailing CRC over everything written so far.
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], cw.crc)
	if _, err := bw.Write(b[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// attrEntry is one object's attribute map, in file order.
type attrEntry struct {
	id    uint32
	pairs [][2]string
}

func attrSectionSize(n int, get func(i int) map[string]string) (uint64, []attrEntry) {
	size := uint64(4) // entry count
	var entries []attrEntry
	for i := 0; i < n; i++ {
		m := get(i)
		if len(m) == 0 {
			continue
		}
		e := attrEntry{id: uint32(i)}
		// Deterministic order.
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			e.pairs = append(e.pairs, [2]string{k, m[k]})
		}
		entries = append(entries, e)
		size += 4 + 2 // id + pair count
		for _, p := range e.pairs {
			size += 2 + uint64(len(p[0])) + 2 + uint64(len(p[1]))
		}
	}
	return size, entries
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func writeAttrSection(cw *countingWriter, entries []attrEntry) error {
	if err := cw.u32(uint32(len(entries))); err != nil {
		return err
	}
	for _, e := range entries {
		if err := cw.u32(e.id); err != nil {
			return err
		}
		if err := cw.u16(uint16(len(e.pairs))); err != nil {
			return err
		}
		for _, p := range e.pairs {
			if err := cw.str16(p[0]); err != nil {
				return err
			}
			if err := cw.str16(p[1]); err != nil {
				return err
			}
		}
	}
	return nil
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
