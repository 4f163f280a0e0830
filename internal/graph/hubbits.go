package graph

import (
	"sync"

	"egocensus/internal/bitset"
)

// Hub bitmaps: dense neighbor membership bitmaps cached for high-degree
// nodes. The CN matcher's candidate-neighbor construction intersects
// N(n) with a candidate set; for a hub the scalar path probes deg(n)
// adjacency entries, while a word-AND over two bitmaps costs ~n/64
// operations regardless of degree — exactly the skewed-workload case
// preferential-attachment graphs produce.
//
// The cache hangs off the CSR view, so its lifetime is one snapshot
// epoch: publishing a snapshot derives a fresh csr (extendCSR) and
// mutation drops it (invalidateCSR), either way discarding the bitmaps.
// Only undirected graphs are cached — there the out/in/all views
// coincide and a single bitmap answers every direction; directed
// adjacency keeps the sorted-list kernels.

// hubCache holds one neighbor bitmap per hub node, nil for non-hubs.
// words is the plane width: Words(numNodes) at build time.
type hubCache struct {
	rows  [][]uint64
	words int
}

// HubDegreeThreshold returns the degree above which a node's neighbor
// set is worth materializing as a bitmap in a graph of n nodes: when the
// degree exceeds the bitmap word count, the AND kernel touches fewer
// words than the scalar probe loop touches adjacency entries. The floor
// keeps tiny graphs from declaring everything a hub.
func HubDegreeThreshold(n int) int {
	if w := bitset.Words(n); w > 32 {
		return w
	}
	return 32
}

// buildHubCache materializes bitmaps from g's CSR view c for nodes past
// the threshold. Degrees come from g's adjacency headers, which on an
// undirected graph (the only kind cached) hold exactly the CSR row
// lengths, so the scan reads an overlay row only for a hub. Parallel
// edges collapse into one bit.
func buildHubCache(g *Graph, c *csr) *hubCache {
	return buildHubCacheParallel(g, c, 1)
}

// buildHubCacheParallel is buildHubCache with the row construction split
// across `workers` goroutines on node stripes. Rows are independent and
// the stripe split changes only which goroutine builds a row, so the
// cache is identical to the sequential build.
func buildHubCacheParallel(g *Graph, c *csr, workers int) *hubCache {
	numNodes := len(g.out)
	words := bitset.Words(numNodes)
	hc := &hubCache{rows: make([][]uint64, numNodes), words: words}
	thresh := HubDegreeThreshold(numNodes)
	build := func(lo, hi int) {
		for n := lo; n < hi; n++ {
			if len(g.out[n]) < thresh {
				continue
			}
			row := make([]uint64, words)
			for _, m := range c.out(NodeID(n)) {
				bitset.SetBit(row, int(m))
			}
			hc.rows[n] = row
		}
	}
	if workers <= 1 || numNodes < 1024 {
		build(0, numNodes)
		return hc
	}
	var wg sync.WaitGroup
	stripe := (numNodes + workers - 1) / workers
	for lo := 0; lo < numNodes; lo += stripe {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			build(lo, min(lo+stripe, numNodes))
		}(lo)
	}
	wg.Wait()
	return hc
}

// BuildHubBitmapsParallel eagerly materializes the hub-neighbor bitmaps
// with up to `workers` goroutines (no-op for directed graphs, falls back
// to the sequential build for small graphs). The result is identical to
// BuildHubBitmaps; sharded stores use it so replay-on-open and the first
// census after a publish pay the build across cores.
func (g *Graph) BuildHubBitmapsParallel(workers int) {
	if g.directed {
		return
	}
	c := g.ensureCSR()
	if c.hubs.Load() != nil {
		return
	}
	hc := buildHubCacheParallel(g, c, workers)
	c.hubs.CompareAndSwap(nil, hc)
}

// ensureHubs returns the CSR view's hub cache, building it on first use.
// Concurrent builders race benignly: the build is deterministic and the
// first published pointer wins.
func (g *Graph) ensureHubs(c *csr) *hubCache {
	if hc := c.hubs.Load(); hc != nil {
		return hc
	}
	hc := buildHubCache(g, c)
	if !c.hubs.CompareAndSwap(nil, hc) {
		if cur := c.hubs.Load(); cur != nil {
			return cur
		}
	}
	return hc
}

// BuildHubBitmaps eagerly materializes the hub-neighbor bitmaps for the
// current topology (no-op for directed graphs). Call it alongside
// BuildCSR before fanning census work out to workers so they share one
// prebuilt cache.
func (g *Graph) BuildHubBitmaps() {
	if g.directed {
		return
	}
	g.ensureHubs(g.ensureCSR())
}

// HubBitmap returns the cached neighbor bitmap of n — bit m set iff m is
// adjacent to n — or nil when n is below the hub threshold or the graph
// is directed. The returned words are owned by the graph, must not be
// modified, and are invalidated by graph mutation.
func (g *Graph) HubBitmap(n NodeID) []uint64 {
	if g.directed {
		return nil
	}
	g.mustNode(n)
	hc := g.ensureHubs(g.ensureCSR())
	if int(n) >= len(hc.rows) {
		return nil
	}
	return hc.rows[n]
}

// HubRows returns the full hub-bitmap table for the current topology:
// rows[n] is n's neighbor bitmap, nil below the threshold. Hot loops use
// this to amortize the per-call cache lookup of HubBitmap. Returns nil
// for directed graphs. The table and its rows are owned by the graph.
func (g *Graph) HubRows() [][]uint64 {
	if g.directed {
		return nil
	}
	return g.ensureHubs(g.ensureCSR()).rows
}

// HubCount reports how many nodes currently have cached bitmaps, for
// monitoring and tests.
func (g *Graph) HubCount() int {
	if g.directed {
		return 0
	}
	hc := g.ensureHubs(g.ensureCSR())
	count := 0
	for _, r := range hc.rows {
		if r != nil {
			count++
		}
	}
	return count
}
