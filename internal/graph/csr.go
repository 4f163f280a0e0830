package graph

import "sync/atomic"

// csr is a compressed-sparse-row mirror of the adjacency lists: one flat
// offsets array and one flat targets array per direction, built once per
// graph topology and invalidated by mutation (AddNode/AddEdge). The flat
// layout removes the per-node slice-header indirection of [][]Half and
// keeps neighbor scans on contiguous cache lines, which is what the hot
// traversal paths (BFS, k-hop extraction, CN matching) iterate.
//
// Three views exist:
//
//   - out: out-neighbors (all incident neighbors for undirected graphs),
//   - in:  in-neighbors (directed only; aliases out when undirected),
//   - all: the direction-ignoring union used by neighborhood traversal
//     (out followed by in; may repeat a neighbor for reciprocal directed
//     edge pairs, exactly like the adjacency lists it mirrors — traversals
//     deduplicate through their visited marks).
type csr struct {
	outOff []int32
	outTo  []NodeID
	inOff  []int32
	inTo   []NodeID
	allOff []int32
	allTo  []NodeID

	// Delta overlay (snapshot publication, writer.go). The flat arrays
	// above describe baseN nodes as of some earlier snapshot; over holds
	// replacement rows for nodes whose adjacency changed since (and for
	// nodes added since, when they have edges). A nil over is the common
	// fully-compacted case and costs one predictable branch per access.
	// Nodes >= baseN absent from over have no incident edges.
	baseN int
	over  map[NodeID]csrRow

	// hubs caches neighbor bitmaps for high-degree nodes (hubbits.go).
	// Tied to this csr instance, so a snapshot publish or mutation that
	// replaces the view discards the cache with it.
	hubs atomic.Pointer[hubCache]
}

// csrRow is one node's overlaid adjacency, mirroring the three flat views.
type csrRow struct {
	out, in, all []NodeID
}

func (c *csr) out(n NodeID) []NodeID {
	if c.over != nil {
		if r, ok := c.over[n]; ok {
			return r.out
		}
		if int(n) >= c.baseN {
			return nil
		}
	}
	return c.outTo[c.outOff[n]:c.outOff[n+1]]
}

func (c *csr) in(n NodeID) []NodeID {
	if c.over != nil {
		if r, ok := c.over[n]; ok {
			return r.in
		}
		if int(n) >= c.baseN {
			return nil
		}
	}
	return c.inTo[c.inOff[n]:c.inOff[n+1]]
}

func (c *csr) all(n NodeID) []NodeID {
	if c.over != nil {
		if r, ok := c.over[n]; ok {
			return r.all
		}
		if int(n) >= c.baseN {
			return nil
		}
	}
	return c.allTo[c.allOff[n]:c.allOff[n+1]]
}

// csrRowOf rebuilds one node's overlay row from the adjacency lists.
func csrRowOf(g *Graph, n NodeID) csrRow {
	out := make([]NodeID, len(g.out[n]))
	for i, h := range g.out[n] {
		out[i] = h.To
	}
	if !g.directed {
		return csrRow{out: out, in: out, all: out}
	}
	in := make([]NodeID, len(g.in[n]))
	for i, h := range g.in[n] {
		in[i] = h.To
	}
	all := make([]NodeID, 0, len(out)+len(in))
	all = append(append(all, out...), in...)
	return csrRow{out: out, in: in, all: all}
}

// extendCSR derives the CSR view of a freshly published snapshot from its
// parent's view: the flat arrays are shared and only the dirty nodes get
// overlay rows, so a publish never pays an O(nodes+edges) rebuild. The
// parent view may itself carry an overlay; its rows are inherited unless
// re-dirtied.
func extendCSR(base *csr, g *Graph, dirty map[NodeID]struct{}) *csr {
	c := &csr{
		outOff: base.outOff, outTo: base.outTo,
		inOff: base.inOff, inTo: base.inTo,
		allOff: base.allOff, allTo: base.allTo,
		baseN: base.baseN,
		over:  make(map[NodeID]csrRow, len(base.over)+len(dirty)),
	}
	for n, r := range base.over {
		c.over[n] = r
	}
	for n := range dirty {
		c.over[n] = csrRowOf(g, n)
	}
	return c
}

// overlaySize returns the number of overlay rows (0 when compacted).
func (c *csr) overlaySize() int {
	if c == nil {
		return 0
	}
	return len(c.over)
}

// buildCSR flattens the adjacency lists.
func buildCSR(g *Graph) *csr {
	n := len(g.out)
	c := &csr{outOff: make([]int32, n+1), baseN: n}
	total := 0
	for i, l := range g.out {
		c.outOff[i] = int32(total)
		total += len(l)
	}
	c.outOff[n] = int32(total)
	c.outTo = make([]NodeID, total)
	pos := 0
	for _, l := range g.out {
		for _, h := range l {
			c.outTo[pos] = h.To
			pos++
		}
	}
	if !g.directed {
		c.inOff, c.inTo = c.outOff, c.outTo
		c.allOff, c.allTo = c.outOff, c.outTo
		return c
	}
	c.inOff = make([]int32, n+1)
	total = 0
	for i, l := range g.in {
		c.inOff[i] = int32(total)
		total += len(l)
	}
	c.inOff[n] = int32(total)
	c.inTo = make([]NodeID, total)
	pos = 0
	for _, l := range g.in {
		for _, h := range l {
			c.inTo[pos] = h.To
			pos++
		}
	}
	// Union view: out halves then in halves per node.
	c.allOff = make([]int32, n+1)
	total = 0
	for i := 0; i < n; i++ {
		c.allOff[i] = int32(total)
		total += len(g.out[i]) + len(g.in[i])
	}
	c.allOff[n] = int32(total)
	c.allTo = make([]NodeID, total)
	pos = 0
	for i := 0; i < n; i++ {
		for _, h := range g.out[i] {
			c.allTo[pos] = h.To
			pos++
		}
		for _, h := range g.in[i] {
			c.allTo[pos] = h.To
			pos++
		}
	}
	return c
}

// ensureCSR returns the graph's CSR view, building it on first use after a
// mutation. Concurrent callers may race to build; the build is idempotent
// and the first published pointer wins, so readers never observe a stale
// view (mutations clear the pointer before returning).
func (g *Graph) ensureCSR() *csr {
	if c := g.csr.Load(); c != nil {
		return c
	}
	c := buildCSR(g)
	if !g.csr.CompareAndSwap(nil, c) {
		if cur := g.csr.Load(); cur != nil {
			return cur
		}
	}
	return c
}

// BuildCSR eagerly (re)builds the flat CSR adjacency view. Call it before
// fanning traversal work out to goroutines so workers share one prebuilt
// view instead of racing to construct it; it is otherwise built lazily by
// the first traversal.
func (g *Graph) BuildCSR() { g.ensureCSR() }

// invalidateCSR drops the CSR view after a topology mutation.
func (g *Graph) invalidateCSR() { g.csr.Store(nil) }

// CompactCSR rebuilds the flat CSR view from scratch, folding any delta
// overlay back into contiguous arrays. On a frozen snapshot this is safe
// under concurrent readers: the rebuilt view is equivalent and replaces
// the overlay atomically (readers that already hold the overlay pointer
// keep using it, also correct). The ShardedWriter calls this in the background
// once a snapshot's overlay outgrows overlayCompactAt.
func (g *Graph) CompactCSR() { g.csr.Store(buildCSR(g)) }

// CSRInfo reports the current CSR view's state for monitoring: how many
// nodes are served from the delta overlay, and whether a view has been
// built at all.
func (g *Graph) CSRInfo() (overlayRows int, built bool) {
	c := g.csr.Load()
	return c.overlaySize(), c != nil
}

// OutNeighbors returns the out-neighbor IDs of n as a slice into the flat
// CSR view (all incident neighbors for undirected graphs). The slice is
// owned by the graph, must not be modified, and is invalidated by graph
// mutation. One entry per half-edge: parallel edges repeat.
func (g *Graph) OutNeighbors(n NodeID) []NodeID {
	g.mustNode(n)
	return g.ensureCSR().out(n)
}

// InNeighbors returns the in-neighbor IDs of n (same as OutNeighbors for
// undirected graphs), with the same sharing rules as OutNeighbors.
func (g *Graph) InNeighbors(n NodeID) []NodeID {
	g.mustNode(n)
	return g.ensureCSR().in(n)
}

// AllNeighbors returns the direction-ignoring neighbor IDs of n (out
// followed by in for directed graphs), with the same sharing rules as
// OutNeighbors. A neighbor connected by reciprocal directed edges appears
// twice; traversals deduplicate through their visited marks.
func (g *Graph) AllNeighbors(n NodeID) []NodeID {
	g.mustNode(n)
	return g.ensureCSR().all(n)
}
