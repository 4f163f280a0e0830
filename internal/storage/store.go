package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// BlockSize is the unit of the store's read cache.
const BlockSize = 8192

// DefaultCacheBlocks is the default cache capacity (blocks).
const DefaultCacheBlocks = 1024

// Store serves a graph file without materializing it: the header, label
// dictionary, per-node labels, adjacency index and attribute indexes are
// resident; adjacency and attribute payloads are read on demand through a
// fixed-capacity block cache.
//
// The on-demand readers (Adjacency, EdgeEndpoints, NodeAttrs, EdgeAttrs,
// Materialize) share the block cache and are not safe for concurrent use.
// GraphStats and Graph — the plan.Source methods a shared query engine
// calls — are: each computes once, single-flight, however many first
// queries race for it.
type Store struct {
	f    fault.File
	path string
	size int64
	h    header

	labels    *graph.LabelDict
	nodeLabel []uint32
	adjIndex  []uint64 // NumNodes+1 offsets into the adjacency data

	nodeAttrAt map[uint32]int64 // node -> file offset of its attr entry
	edgeAttrAt map[uint32]int64

	cache *blockCache

	statsOnce sync.Once
	stats     *graph.Stats // memoized planner snapshot (source.go)
	graphMu   sync.Mutex   // single-flights Graph's materialization
	graph     *graph.Graph // memoized materialization (source.go)

	// Stats counts cache behaviour for tests and tuning.
	Stats CacheStats
}

// CacheStats reports block cache behaviour.
type CacheStats struct {
	Hits   int64
	Misses int64
}

// Open opens a graph file, verifies its checksum, validates the header
// geometry and section contents, and loads the resident indexes.
// cacheBlocks bounds the block cache (<= 0 uses DefaultCacheBlocks). A
// file that fails any structural check yields a *CorruptFileError; no
// corrupt input panics the reader or allocates beyond the file's size.
func Open(path string, cacheBlocks int) (*Store, error) {
	return OpenFS(fault.OS{}, path, cacheBlocks)
}

// OpenFS is Open through an explicit filesystem seam.
func OpenFS(fsys fault.FS, path string, cacheBlocks int) (*Store, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	st := &Store{f: f, path: path}
	if err := st.init(cacheBlocks); err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

func (st *Store) init(cacheBlocks int) error {
	info, err := st.f.Stat()
	if err != nil {
		return err
	}
	st.size = info.Size()
	if cacheBlocks <= 0 {
		cacheBlocks = DefaultCacheBlocks
	}
	st.cache = newBlockCache(cacheBlocks)

	if err := st.verifyCRC(); err != nil {
		return err
	}
	if err := st.readHeader(); err != nil {
		return err
	}
	if err := st.readLabelTable(); err != nil {
		return err
	}
	if err := st.readNodeLabels(); err != nil {
		return err
	}
	if err := st.readAdjIndex(); err != nil {
		return err
	}
	var err2 error
	st.nodeAttrAt, err2 = st.indexAttrSection(st.h.NodeAttrOff, st.h.EdgeAttrOff, st.h.NumNodes)
	if err2 != nil {
		return err2
	}
	st.edgeAttrAt, err2 = st.indexAttrSection(st.h.EdgeAttrOff, st.h.CRCOff, st.h.NumEdges)
	return err2
}

func (st *Store) verifyCRC() error {
	if st.size < headerSize+4 {
		return st.corrupt("file too small (%d bytes)", st.size)
	}
	if _, err := st.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	h := crc32.NewIEEE()
	if _, err := io.CopyN(h, st.f, st.size-4); err != nil {
		return err
	}
	var tail [4]byte
	if _, err := st.f.ReadAt(tail[:], st.size-4); err != nil {
		return err
	}
	if got, want := h.Sum32(), binary.LittleEndian.Uint32(tail[:]); got != want {
		return st.corrupt("checksum mismatch: file %08x computed %08x", want, got)
	}
	return nil
}

func (st *Store) readHeader() error {
	buf := make([]byte, headerSize)
	if _, err := st.f.ReadAt(buf, 0); err != nil {
		return err
	}
	for i := range Magic {
		if buf[i] != Magic[i] {
			return st.corrupt("bad magic %q", buf[:6])
		}
	}
	p := 6
	st.h.Flags = binary.LittleEndian.Uint32(buf[p:])
	p += 4
	st.h.NumNodes = binary.LittleEndian.Uint64(buf[p:])
	p += 8
	st.h.NumEdges = binary.LittleEndian.Uint64(buf[p:])
	p += 8
	st.h.NumLabels = binary.LittleEndian.Uint32(buf[p:])
	p += 4
	offs := []*uint64{&st.h.LabelTableOff, &st.h.NodeLabelOff, &st.h.AdjIndexOff, &st.h.AdjDataOff, &st.h.EdgeTableOff, &st.h.NodeAttrOff, &st.h.EdgeAttrOff, &st.h.CRCOff}
	for _, o := range offs {
		*o = binary.LittleEndian.Uint64(buf[p:])
		p += 8
	}
	return st.validateHeader()
}

// validateHeader checks the header's internal geometry before any count
// drives an allocation: node and edge counts must fit the 32-bit on-disk
// ID width, fixed-size sections must have exactly the offsets their
// counts imply, and every section boundary must be monotonic and inside
// the file. After this check, resident-index allocations (4·NumNodes
// node labels, 8·(NumNodes+1) adjacency index) are bounded by the file's
// own size.
func (st *Store) validateHeader() error {
	h := &st.h
	if h.NumNodes >= 1<<32 {
		return st.corrupt("node count %d exceeds 32-bit id space", h.NumNodes)
	}
	if h.NumEdges >= 1<<32 {
		return st.corrupt("edge count %d exceeds 32-bit id space", h.NumEdges)
	}
	if h.NumLabels == 0 {
		return st.corrupt("label table must contain the reserved empty label")
	}
	if h.CRCOff != uint64(st.size-4) {
		return st.corrupt("header CRC offset %d does not match file size %d", h.CRCOff, st.size)
	}
	if h.LabelTableOff != headerSize {
		return st.corrupt("label table offset %d != header size %d", h.LabelTableOff, headerSize)
	}
	// Every boundary must be monotonic and inside the file; afterwards,
	// section sizes are safe to compute as differences (no uint64
	// overflow) and are bounded by the file size.
	offs := []uint64{h.LabelTableOff, h.NodeLabelOff, h.AdjIndexOff, h.AdjDataOff, h.EdgeTableOff, h.NodeAttrOff, h.EdgeAttrOff, h.CRCOff}
	prev := uint64(0)
	for _, o := range offs {
		if o < prev || o > uint64(st.size) {
			return st.corrupt("section offsets %v not monotonic within file size %d", offs, st.size)
		}
		prev = o
	}
	// The fixed-size sections (node labels, adjacency index, edge table)
	// must match their counts exactly, and each variable section must at
	// least hold its length prefixes (2 bytes per label string, 4 bytes
	// per attr section count).
	if h.NodeLabelOff-h.LabelTableOff < 2*uint64(h.NumLabels) {
		return st.corrupt("label table [%d,%d) too small for %d labels", h.LabelTableOff, h.NodeLabelOff, h.NumLabels)
	}
	if h.AdjIndexOff-h.NodeLabelOff != 4*h.NumNodes {
		return st.corrupt("node label section [%d,%d) does not hold %d nodes", h.NodeLabelOff, h.AdjIndexOff, h.NumNodes)
	}
	if h.AdjDataOff-h.AdjIndexOff != 8*(h.NumNodes+1) {
		return st.corrupt("adjacency index [%d,%d) does not hold %d+1 offsets", h.AdjIndexOff, h.AdjDataOff, h.NumNodes)
	}
	if h.NodeAttrOff-h.EdgeTableOff != 8*h.NumEdges {
		return st.corrupt("edge table [%d,%d) does not hold %d edges", h.EdgeTableOff, h.NodeAttrOff, h.NumEdges)
	}
	if h.EdgeAttrOff-h.NodeAttrOff < 4 || h.CRCOff-h.EdgeAttrOff < 4 {
		return st.corrupt("attribute sections [%d,%d,%d) truncated", h.NodeAttrOff, h.EdgeAttrOff, h.CRCOff)
	}
	return nil
}

func (st *Store) readLabelTable() error {
	st.labels = graph.NewLabelDict()
	off := int64(st.h.LabelTableOff)
	end := int64(st.h.NodeLabelOff)
	for i := uint32(0); i < st.h.NumLabels; i++ {
		if off >= end {
			return st.corrupt("label table overruns its section at label %d", i)
		}
		s, n, err := st.readStr16(off)
		if err != nil {
			return err
		}
		off += n
		if i == 0 {
			if s != "" {
				return st.corrupt("label 0 must be the empty label")
			}
			continue
		}
		st.labels.Intern(s)
	}
	if off != end {
		return st.corrupt("label table ends at %d, section at %d", off, end)
	}
	// Intern dedupes, so a repeated name would silently shift every later
	// label ID off by one.
	if st.labels.Size() != int(st.h.NumLabels) {
		return st.corrupt("label table holds duplicate names (%d distinct of %d)", st.labels.Size(), st.h.NumLabels)
	}
	return nil
}

func (st *Store) readNodeLabels() error {
	buf := make([]byte, 4*st.h.NumNodes)
	if len(buf) > 0 {
		if _, err := st.f.ReadAt(buf, int64(st.h.NodeLabelOff)); err != nil {
			return err
		}
	}
	st.nodeLabel = make([]uint32, st.h.NumNodes)
	for i := range st.nodeLabel {
		st.nodeLabel[i] = binary.LittleEndian.Uint32(buf[4*i:])
		if st.nodeLabel[i] >= st.h.NumLabels {
			return st.corrupt("node %d label %d out of range (%d labels)", i, st.nodeLabel[i], st.h.NumLabels)
		}
	}
	return nil
}

func (st *Store) readAdjIndex() error {
	buf := make([]byte, 8*(st.h.NumNodes+1))
	if _, err := st.f.ReadAt(buf, int64(st.h.AdjIndexOff)); err != nil {
		return err
	}
	st.adjIndex = make([]uint64, st.h.NumNodes+1)
	adjSize := st.h.EdgeTableOff - st.h.AdjDataOff
	prev := uint64(0)
	for i := range st.adjIndex {
		st.adjIndex[i] = binary.LittleEndian.Uint64(buf[8*i:])
		if st.adjIndex[i] < prev || st.adjIndex[i] > adjSize {
			return st.corrupt("adjacency index entry %d (%d) not monotonic within data size %d", i, st.adjIndex[i], adjSize)
		}
		prev = st.adjIndex[i]
	}
	if st.adjIndex[0] != 0 || st.adjIndex[st.h.NumNodes] != adjSize {
		return st.corrupt("adjacency index spans [%d,%d), data section holds %d bytes", st.adjIndex[0], st.adjIndex[st.h.NumNodes], adjSize)
	}
	return nil
}

// indexAttrSection scans an attribute section once, recording the file
// offset of each entry. end bounds the section and maxID the valid object
// ids, so a corrupt count or entry errors instead of scanning into later
// sections or indexing attributes for nonexistent objects.
func (st *Store) indexAttrSection(sectionOff, end, maxID uint64) (map[uint32]int64, error) {
	idx := make(map[uint32]int64)
	off := int64(sectionOff)
	count, err := st.readU32(off)
	if err != nil {
		return nil, err
	}
	if uint64(count) > maxID {
		return nil, st.corrupt("attribute section at %d claims %d entries for %d objects", sectionOff, count, maxID)
	}
	off += 4
	for i := uint32(0); i < count; i++ {
		if uint64(off) >= end {
			return nil, st.corrupt("attribute section at %d overruns its end %d at entry %d", sectionOff, end, i)
		}
		id, err := st.readU32(off)
		if err != nil {
			return nil, err
		}
		if uint64(id) >= maxID {
			return nil, st.corrupt("attribute entry for object %d out of range (%d objects)", id, maxID)
		}
		if _, dup := idx[id]; dup {
			return nil, st.corrupt("duplicate attribute entry for object %d", id)
		}
		idx[id] = off
		off += 4
		pairs, err := st.readU16(off)
		if err != nil {
			return nil, err
		}
		off += 2
		for p := uint16(0); p < pairs; p++ {
			for s := 0; s < 2; s++ {
				l, err := st.readU16(off)
				if err != nil {
					return nil, err
				}
				off += 2 + int64(l)
			}
		}
	}
	if uint64(off) != end {
		return nil, st.corrupt("attribute section [%d,%d) ends at %d", sectionOff, end, off)
	}
	return idx, nil
}

// Close releases the underlying file.
func (st *Store) Close() error { return st.f.Close() }

// Directed reports whether the stored graph is directed.
func (st *Store) Directed() bool { return st.h.directed() }

// ShardCount returns the shard count recorded at store creation (1 for
// unsharded and pre-sharding images).
func (st *Store) ShardCount() int { return st.h.shardCount() }

// NumNodes returns the node count.
func (st *Store) NumNodes() int { return int(st.h.NumNodes) }

// NumEdges returns the edge count.
func (st *Store) NumEdges() int { return int(st.h.NumEdges) }

// Labels returns the label dictionary.
func (st *Store) Labels() *graph.LabelDict { return st.labels }

// Label returns the label of node n.
func (st *Store) Label(n graph.NodeID) graph.LabelID {
	return graph.LabelID(st.nodeLabel[n])
}

// Adjacency reads node n's adjacency lists from disk (through the cache).
func (st *Store) Adjacency(n graph.NodeID) (out, in []graph.Half, err error) {
	if n < 0 || uint64(n) >= st.h.NumNodes {
		return nil, nil, fmt.Errorf("storage: node %d out of range", n)
	}
	off := int64(st.h.AdjDataOff + st.adjIndex[n])
	slot := st.adjIndex[n+1] - st.adjIndex[n]
	if slot < 8 {
		return nil, nil, st.corrupt("adjacency slot for node %d holds %d bytes", n, slot)
	}
	outCount, err := st.readU32(off)
	if err != nil {
		return nil, nil, err
	}
	inCount, err := st.readU32(off + 4)
	if err != nil {
		return nil, nil, err
	}
	// The declared counts must fill the node's slot exactly, so a corrupt
	// count can neither read a neighbor's data nor drive an allocation
	// past the slot.
	if 8+8*(uint64(outCount)+uint64(inCount)) != slot {
		return nil, nil, st.corrupt("adjacency counts %d+%d do not fill node %d's %d-byte slot", outCount, inCount, n, slot)
	}
	off += 8
	read := func(count uint32, at int64) ([]graph.Half, error) {
		if count == 0 {
			return nil, nil
		}
		buf, err := st.readRange(at, int(count)*8)
		if err != nil {
			return nil, err
		}
		halves := make([]graph.Half, count)
		for i := range halves {
			halves[i].To = graph.NodeID(binary.LittleEndian.Uint32(buf[8*i:]))
			halves[i].Edge = graph.EdgeID(binary.LittleEndian.Uint32(buf[8*i+4:]))
			if uint64(halves[i].To) >= st.h.NumNodes || uint64(halves[i].Edge) >= st.h.NumEdges {
				return nil, st.corrupt("adjacency of node %d references node %d / edge %d out of range", n, halves[i].To, halves[i].Edge)
			}
		}
		return halves, nil
	}
	out, err = read(outCount, off)
	if err != nil {
		return nil, nil, err
	}
	in, err = read(inCount, off+int64(outCount)*8)
	if err != nil {
		return nil, nil, err
	}
	return out, in, nil
}

// EdgeEndpoints reads edge e's endpoints.
func (st *Store) EdgeEndpoints(e graph.EdgeID) (from, to graph.NodeID, err error) {
	if e < 0 || uint64(e) >= st.h.NumEdges {
		return 0, 0, fmt.Errorf("storage: edge %d out of range", e)
	}
	buf, err := st.readRange(int64(st.h.EdgeTableOff)+int64(e)*8, 8)
	if err != nil {
		return 0, 0, err
	}
	from = graph.NodeID(binary.LittleEndian.Uint32(buf))
	to = graph.NodeID(binary.LittleEndian.Uint32(buf[4:]))
	// Endpoint validation here keeps Materialize from panicking the graph
	// builder on a corrupt edge table.
	if uint64(from) >= st.h.NumNodes || uint64(to) >= st.h.NumNodes {
		return 0, 0, st.corrupt("edge %d endpoints (%d,%d) out of range (%d nodes)", e, from, to, st.h.NumNodes)
	}
	return from, to, nil
}

// NodeAttrs reads the attributes of node n (excluding the label).
func (st *Store) NodeAttrs(n graph.NodeID) (map[string]string, error) {
	return st.readAttrs(st.nodeAttrAt, uint32(n))
}

// EdgeAttrs reads the attributes of edge e.
func (st *Store) EdgeAttrs(e graph.EdgeID) (map[string]string, error) {
	return st.readAttrs(st.edgeAttrAt, uint32(e))
}

func (st *Store) readAttrs(idx map[uint32]int64, id uint32) (map[string]string, error) {
	off, ok := idx[id]
	if !ok {
		return nil, nil
	}
	off += 4 // skip id
	pairs, err := st.readU16(off)
	if err != nil {
		return nil, err
	}
	off += 2
	m := make(map[string]string, pairs)
	for p := uint16(0); p < pairs; p++ {
		k, n, err := st.readStr16(off)
		if err != nil {
			return nil, err
		}
		off += n
		v, n, err := st.readStr16(off)
		if err != nil {
			return nil, err
		}
		off += n
		m[k] = v
	}
	return m, nil
}

// Materialize loads the entire stored graph into memory.
func (st *Store) Materialize() (*graph.Graph, error) {
	g := graph.New(st.Directed())
	g.AddNodes(st.NumNodes())
	for n := 0; n < st.NumNodes(); n++ {
		id := graph.NodeID(n)
		if l := st.Label(id); l != graph.NoLabel {
			g.SetLabel(id, st.labels.Name(l))
		}
		attrs, err := st.NodeAttrs(id)
		if err != nil {
			return nil, err
		}
		for k, v := range attrs {
			g.SetNodeAttr(id, k, v)
		}
	}
	for e := 0; e < st.NumEdges(); e++ {
		from, to, err := st.EdgeEndpoints(graph.EdgeID(e))
		if err != nil {
			return nil, err
		}
		eid := g.AddEdge(from, to)
		if eid != graph.EdgeID(e) {
			return nil, fmt.Errorf("storage: edge id drift (%d != %d)", eid, e)
		}
		attrs, err := st.EdgeAttrs(graph.EdgeID(e))
		if err != nil {
			return nil, err
		}
		for k, v := range attrs {
			g.SetEdgeAttr(eid, k, v)
		}
	}
	return g, nil
}

// --- low-level cached reads ---

func (st *Store) readU16(off int64) (uint16, error) {
	b, err := st.readRange(off, 2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (st *Store) readU32(off int64) (uint32, error) {
	b, err := st.readRange(off, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (st *Store) readStr16(off int64) (string, int64, error) {
	l, err := st.readU16(off)
	if err != nil {
		return "", 0, err
	}
	if l == 0 {
		return "", 2, nil
	}
	b, err := st.readRange(off+2, int(l))
	if err != nil {
		return "", 0, err
	}
	return string(b), 2 + int64(l), nil
}

// readRange returns length bytes starting at off, served from the block
// cache. The returned slice is freshly allocated.
func (st *Store) readRange(off int64, length int) ([]byte, error) {
	if off < 0 || off+int64(length) > st.size {
		return nil, fmt.Errorf("storage: read [%d,%d) out of file bounds %d", off, off+int64(length), st.size)
	}
	out := make([]byte, 0, length)
	for length > 0 {
		blockID := off / BlockSize
		blockOff := int(off % BlockSize)
		block, err := st.block(blockID)
		if err != nil {
			return nil, err
		}
		n := len(block) - blockOff
		if n > length {
			n = length
		}
		out = append(out, block[blockOff:blockOff+n]...)
		off += int64(n)
		length -= n
	}
	return out, nil
}

func (st *Store) block(id int64) ([]byte, error) {
	if b, ok := st.cache.get(id); ok {
		st.Stats.Hits++
		return b, nil
	}
	st.Stats.Misses++
	off := id * BlockSize
	size := int64(BlockSize)
	if off+size > st.size {
		size = st.size - off
	}
	buf := make([]byte, size)
	if _, err := st.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	st.cache.put(id, buf)
	return buf, nil
}

// blockCache is a fixed-capacity cache with CLOCK (second chance)
// eviction. It is single-goroutine by contract: even a hit mutates the
// entry's use bit and the Store's hit counters, so callers serialize all
// access (Store.Graph holds graphMu across Materialize for exactly this).
type blockCache struct {
	capacity int
	entries  map[int64]*cacheEntry
	ring     []*cacheEntry
	hand     int
}

type cacheEntry struct {
	id   int64
	data []byte
	used bool
}

func newBlockCache(capacity int) *blockCache {
	if capacity < 1 {
		capacity = 1
	}
	return &blockCache{capacity: capacity, entries: make(map[int64]*cacheEntry, capacity)}
}

func (c *blockCache) get(id int64) ([]byte, bool) {
	e, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	e.used = true
	return e.data, true
}

func (c *blockCache) put(id int64, data []byte) {
	if e, ok := c.entries[id]; ok {
		e.data = data
		e.used = true
		return
	}
	e := &cacheEntry{id: id, data: data, used: true}
	if len(c.ring) < c.capacity {
		c.ring = append(c.ring, e)
		c.entries[id] = e
		return
	}
	// CLOCK eviction: advance the hand, clearing use bits, until an
	// unused entry is found.
	for {
		victim := c.ring[c.hand]
		if victim.used {
			victim.used = false
			c.hand = (c.hand + 1) % len(c.ring)
			continue
		}
		delete(c.entries, victim.id)
		c.ring[c.hand] = e
		c.entries[id] = e
		c.hand = (c.hand + 1) % len(c.ring)
		return
	}
}
