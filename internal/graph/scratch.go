package graph

import (
	"math"
	"sync"
)

// Scratch is reusable flat working memory for neighborhood traversals: an
// epoch-stamped visited array, a distance array, and a frontier/result
// slice. Stamping a fresh epoch per traversal makes "reset" O(1), so a
// pooled Scratch amortizes all per-call allocation away — the census
// drivers run one k-hop extraction per focal node and recycle scratches
// through a sync.Pool across workers.
//
// A Scratch backs at most one live Reach: the next traversal on the same
// Scratch invalidates the previous result. A Scratch must not be shared
// between goroutines.
type Scratch struct {
	mark  []int32  // mark[n] == epoch ⇒ n reached in the current traversal
	dist  []int32  // hop distance, valid only when marked
	nodes []NodeID // reached nodes in BFS order; backs Reach.Nodes
	epoch int32
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AcquireScratch returns a pooled Scratch ready for traversals over graphs
// with at most n nodes. Release it when done.
func AcquireScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.grow(n)
	return s
}

// Release returns the Scratch to the pool. The caller must not use the
// Scratch, or any Reach borrowed from it, afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }

func (s *Scratch) grow(n int) {
	if len(s.mark) < n {
		s.mark = make([]int32, n)
		s.dist = make([]int32, n)
		s.epoch = 0
	}
}

// begin starts a new traversal: grows the arrays to the graph size and
// stamps a fresh epoch (clearing marks only on the ~never-taken epoch
// wraparound).
func (s *Scratch) begin(n int) {
	s.grow(n)
	if s.epoch == math.MaxInt32 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	s.nodes = s.nodes[:0]
}

// Reach is the result of a k-hop traversal: the reached node set with
// O(1) membership and hop-distance lookup and the nodes listed in BFS
// order. It borrows its storage from the Scratch that produced it and is
// valid until that Scratch starts another traversal or is released.
type Reach struct {
	// Nodes lists the reached nodes in BFS order, source first.
	Nodes []NodeID

	mark  []int32
	dist  []int32
	epoch int32
}

// Len returns the number of reached nodes (|N_k(src)| + 1 for the source).
func (r Reach) Len() int { return len(r.Nodes) }

// Contains reports whether n was reached. It and Dist take a pointer: a
// Reach is too large to live in registers, so a value receiver would copy
// it on every inlined membership test of the census inner loops.
func (r *Reach) Contains(n NodeID) bool {
	return int(n) < len(r.mark) && r.mark[n] == r.epoch
}

// Dist returns the hop distance of n from the source, or -1 when n was not
// reached.
func (r *Reach) Dist(n NodeID) int32 {
	if int(n) >= len(r.mark) || r.mark[n] != r.epoch {
		return -1
	}
	return r.dist[n]
}

// Members returns the reached nodes in BFS order (the Nodes field; the
// method form lets *Reach satisfy the match package's NodeSet interface).
func (r Reach) Members() []NodeID { return r.Nodes }

// Intersect restricts r to the nodes other also reached, with Dist the
// larger of the two distances: for two k-hop traversals from a and b it
// is N_k(a) ∩ N_k(b) under max distance, the pairwise neighborhood of
// SUBGRAPH-INTERSECTION. It edits r's scratch in place — dropped nodes
// are unmarked, kept ones stay in r's BFS order — so the result replaces
// r and is valid as long as r was. other must come from another Scratch
// and is only read.
func (r Reach) Intersect(other Reach) Reach {
	kept := r.Nodes[:0]
	for _, n := range r.Nodes {
		d := other.Dist(n)
		if d < 0 {
			r.mark[n] = 0 // epochs start at 1, so 0 is never a live mark
			continue
		}
		r.dist[n] = max(r.dist[n], d)
		kept = append(kept, n)
	}
	r.Nodes = kept
	return r
}

// KHop computes the k-hop neighborhood of src — N_k(src) plus src itself —
// using s as working memory (maxDepth < 0 means unbounded). It is the
// allocation-free replacement for KHopNodes on the census hot paths: the
// returned Reach borrows s's arrays and is valid until the next traversal
// on s.
func (g *Graph) KHop(src NodeID, maxDepth int, s *Scratch) Reach {
	return g.KHopFrom([]NodeID{src}, maxDepth, s)
}

// KHopFrom is KHop from several sources at once: one breadth-first
// traversal reaching every node within maxDepth hops of any source, with
// Dist the distance to the nearest one.
func (g *Graph) KHopFrom(srcs []NodeID, maxDepth int, s *Scratch) Reach {
	c := g.ensureCSR()
	s.begin(len(g.out))
	for _, src := range srcs {
		g.mustNode(src)
		if s.mark[src] != s.epoch {
			s.mark[src] = s.epoch
			s.dist[src] = 0
			s.nodes = append(s.nodes, src)
		}
	}
	for head := 0; head < len(s.nodes); head++ {
		n := s.nodes[head]
		d := s.dist[n]
		if maxDepth >= 0 && int(d) == maxDepth {
			continue
		}
		for _, nb := range c.all(n) {
			if s.mark[nb] != s.epoch {
				s.mark[nb] = s.epoch
				s.dist[nb] = d + 1
				s.nodes = append(s.nodes, nb)
			}
		}
	}
	return Reach{Nodes: s.nodes, mark: s.mark, dist: s.dist, epoch: s.epoch}
}
