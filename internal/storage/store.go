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
// dictionary, per-node labels and adjacency index are resident. Open
// reads each section it validates with one ReadAt.
//
// Materialize (and Graph, which memoizes it) hydrates the whole graph
// with one sequential read per section it needs. The on-demand readers
// (Adjacency, EdgeEndpoints) instead read single items through a
// fixed-capacity block cache; they share it and are not safe for
// concurrent use. GraphStats and Graph — the plan.Source methods
// a shared query engine calls — are: each computes once, single-flight,
// however many first queries race for it.
type Store struct {
	f    fault.File
	path string
	size int64
	h    header

	labels    *graph.LabelDict
	nodeLabel []graph.LabelID
	adjIndex  []uint64 // NumNodes+1 offsets into the adjacency data

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
	if err := st.checkAttrSection(st.h.NodeAttrOff, st.h.EdgeAttrOff, st.h.NumNodes); err != nil {
		return err
	}
	return st.checkAttrSection(st.h.EdgeAttrOff, st.h.CRCOff, st.h.NumEdges)
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
	buf, err := st.readSection(st.h.LabelTableOff, st.h.NodeLabelOff)
	if err != nil {
		return err
	}
	st.labels = graph.NewLabelDict()
	p := uint64(0)
	for i := uint32(0); i < st.h.NumLabels; i++ {
		b, next, ok := str16(buf, p)
		if !ok {
			return st.corrupt("label table overruns its section at label %d", i)
		}
		p = next
		s := string(b)
		if i == 0 {
			if s != "" {
				return st.corrupt("label 0 must be the empty label")
			}
			continue
		}
		st.labels.Intern(s)
	}
	if p != uint64(len(buf)) {
		return st.corrupt("label table ends at %d, section at %d", st.h.LabelTableOff+p, st.h.NodeLabelOff)
	}
	// Intern dedupes, so a repeated name would silently shift every later
	// label ID off by one.
	if st.labels.Size() != int(st.h.NumLabels) {
		return st.corrupt("label table holds duplicate names (%d distinct of %d)", st.labels.Size(), st.h.NumLabels)
	}
	return nil
}

func (st *Store) readNodeLabels() error {
	buf, err := st.readSection(st.h.NodeLabelOff, st.h.AdjIndexOff)
	if err != nil {
		return err
	}
	st.nodeLabel = make([]graph.LabelID, st.h.NumNodes)
	for i := range st.nodeLabel {
		l := binary.LittleEndian.Uint32(buf[4*i:])
		if l >= st.h.NumLabels {
			return st.corrupt("node %d label %d out of range (%d labels)", i, l, st.h.NumLabels)
		}
		st.nodeLabel[i] = graph.LabelID(l)
	}
	return nil
}

func (st *Store) readAdjIndex() error {
	buf, err := st.readSection(st.h.AdjIndexOff, st.h.AdjDataOff)
	if err != nil {
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

// checkAttrSection reads an attribute section and walks it with every
// structural check Materialize relies on.
func (st *Store) checkAttrSection(off, end, maxID uint64) error {
	sec, err := st.readAttrSection(off, end, maxID)
	if err != nil {
		return err
	}
	return sec.walk(nil)
}

// attrSection is one attribute section read whole: a u32 entry count,
// then per entry a u32 object id, a u16 pair count and that many str16
// key/value pairs.
type attrSection struct {
	st    *Store
	off   uint64 // file offset of buf[0]
	maxID uint64 // object count of the section's ID space
	buf   []byte
	count uint32
}

// readAttrSection reads the attribute section [off, end) with one ReadAt
// and checks its entry count against maxID and against the entries the
// section can hold, before the count sizes anything.
func (st *Store) readAttrSection(off, end, maxID uint64) (*attrSection, error) {
	buf, err := st.readSection(off, end)
	if err != nil {
		return nil, err
	}
	// validateHeader guarantees the 4-byte count.
	count := binary.LittleEndian.Uint32(buf)
	if uint64(count) > maxID {
		return nil, st.corrupt("attribute section at %d claims %d entries for %d objects", off, count, maxID)
	}
	// An entry is at least an id and a pair count (6 bytes).
	if 6*uint64(count) > uint64(len(buf)-4) {
		return nil, st.corrupt("attribute section at %d claims %d entries in %d bytes", off, count, len(buf))
	}
	return &attrSection{st: st, off: off, maxID: maxID, buf: buf, count: count}, nil
}

// walk decodes the section in memory, calling pair (if non-nil) with
// each key/value pair of each entry. The slices pair receives alias the
// section buffer. A length that runs past the section end, an id outside
// maxID or not above the previous entry's (the encoder emits strictly
// ascending ids, so a repeat is a duplicate entry), or bytes left after
// the last entry yield a *CorruptFileError.
func (s *attrSection) walk(pair func(id uint32, k, v []byte)) error {
	buf, size := s.buf, uint64(len(s.buf))
	p := uint64(4)
	var prev uint32
	overrun := func(i uint32) error {
		return s.st.corrupt("attribute section at %d overruns its end %d at entry %d", s.off, s.off+size, i)
	}
	for i := uint32(0); i < s.count; i++ {
		if p+6 > size {
			return overrun(i)
		}
		id := binary.LittleEndian.Uint32(buf[p:])
		if uint64(id) >= s.maxID {
			return s.st.corrupt("attribute entry for object %d out of range (%d objects)", id, s.maxID)
		}
		if i > 0 && id <= prev {
			return s.st.corrupt("attribute entry for object %d follows object %d (ids must ascend)", id, prev)
		}
		prev = id
		pairs := binary.LittleEndian.Uint16(buf[p+4:])
		p += 6
		for j := uint16(0); j < pairs; j++ {
			k, next, okK := str16(buf, p)
			v, next, okV := str16(buf, next)
			if !okK || !okV {
				return overrun(i)
			}
			p = next
			if pair != nil {
				pair(id, k, v)
			}
		}
	}
	if p != size {
		return s.st.corrupt("attribute section [%d,%d) ends at %d", s.off, s.off+size, s.off+p)
	}
	return nil
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
func (st *Store) Label(n graph.NodeID) graph.LabelID { return st.nodeLabel[n] }

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
	return st.edgeAt(buf, e)
}

// edgeAt decodes the edge-table entry of edge e held in buf, checking its
// endpoints so a corrupt table errors instead of panicking
// graph.FromParts or AddEdge.
func (st *Store) edgeAt(buf []byte, e graph.EdgeID) (from, to graph.NodeID, err error) {
	f, t := binary.LittleEndian.Uint32(buf), binary.LittleEndian.Uint32(buf[4:])
	if uint64(f) >= st.h.NumNodes || uint64(t) >= st.h.NumNodes {
		return 0, 0, st.corrupt("edge %d endpoints (%d,%d) out of range (%d nodes)", e, f, t, st.h.NumNodes)
	}
	return graph.NodeID(f), graph.NodeID(t), nil
}

// Materialize loads the entire stored graph into memory. It reads the
// edge table and each attribute section with one ReadAt and decodes them
// in memory, bypassing the block cache: graph.FromParts builds the
// adjacency in one pass, with a copy of the store's label dictionary so
// stored label IDs stay graph label IDs, and attributes go straight into
// the graph with the strings each section repeats interned once.
func (st *Store) Materialize() (*graph.Graph, error) {
	buf, err := st.readSection(st.h.EdgeTableOff, st.h.NodeAttrOff)
	if err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, st.h.NumEdges)
	for e := range edges {
		if edges[e].From, edges[e].To, err = st.edgeAt(buf[8*e:], graph.EdgeID(e)); err != nil {
			return nil, err
		}
	}
	labels := append([]graph.LabelID(nil), st.nodeLabel...)
	g := graph.FromParts(st.Directed(), st.labels.Clone(), labels, edges)

	if err := st.hydrateAttrs(st.h.NodeAttrOff, st.h.EdgeAttrOff, st.h.NumNodes, func(id uint32, k, v string) {
		g.SetNodeAttr(graph.NodeID(id), k, v)
	}); err != nil {
		return nil, err
	}
	if err := st.hydrateAttrs(st.h.EdgeAttrOff, st.h.CRCOff, st.h.NumEdges, func(id uint32, k, v string) {
		g.SetEdgeAttr(graph.EdgeID(id), k, v)
	}); err != nil {
		return nil, err
	}
	return g, nil
}

// hydrateAttrs reads an attribute section and passes every pair to set.
// Equal keys and values within the section share one string, so 2 000
// "bucket" keys cost one allocation.
func (st *Store) hydrateAttrs(off, end, maxID uint64, set func(id uint32, k, v string)) error {
	sec, err := st.readAttrSection(off, end, maxID)
	if err != nil {
		return err
	}
	interned := map[string]string{}
	str := func(b []byte) string {
		if s, ok := interned[string(b)]; ok {
			return s
		}
		s := string(b)
		interned[s] = s
		return s
	}
	return sec.walk(func(id uint32, k, v []byte) { set(id, str(k), str(v)) })
}

// str16 decodes the length-prefixed string at buf[p:] and returns the
// offset after it; ok is false when the string runs past buf.
func str16(buf []byte, p uint64) (s []byte, next uint64, ok bool) {
	if p+2 > uint64(len(buf)) {
		return nil, p, false
	}
	next = p + 2 + uint64(binary.LittleEndian.Uint16(buf[p:]))
	if next > uint64(len(buf)) {
		return nil, p, false
	}
	return buf[p+2 : next], next, true
}

// readSection reads the section [off, end) with one ReadAt. validateHeader
// has bounded every section by the file size.
func (st *Store) readSection(off, end uint64) ([]byte, error) {
	buf := make([]byte, end-off)
	if len(buf) > 0 {
		if _, err := st.f.ReadAt(buf, int64(off)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// --- low-level cached reads ---

func (st *Store) readU32(off int64) (uint32, error) {
	b, err := st.readRange(off, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
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
// eviction serving the on-demand readers; Open and Materialize read whole
// sections past it. It is single-goroutine by contract: even a hit
// mutates the entry's use bit and the Store's hit counters, so callers
// serialize all access.
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
