package core

import (
	"cmp"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"egocensus/internal/graph"
)

// workerPanic carries a panic out of a pool worker goroutine: the pool
// captures the first one (with its original stack), lets the remaining
// workers drain, and rethrows it on the coordinating goroutine so it
// propagates to the caller — for engine queries, to the execution
// boundary's recover, which converts it to a *InternalError.
type workerPanic struct {
	val   any
	stack []byte
}

// panicBox latches the first worker panic.
type panicBox struct {
	mu sync.Mutex
	wp *workerPanic
}

func (b *panicBox) capture() {
	if r := recover(); r != nil {
		b.mu.Lock()
		if b.wp == nil {
			b.wp = &workerPanic{val: r, stack: debug.Stack()}
		}
		b.mu.Unlock()
	}
}

// rethrow re-panics the captured worker panic, if any, on the calling
// goroutine.
func (b *panicBox) rethrow() {
	if b.wp != nil {
		panic(b.wp)
	}
}

// DefaultWorkers is the worker count the front ends use for "auto"
// parallelism: one worker per CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// maxWorkers caps absurd worker requests: beyond this, more goroutines
// only add scheduling overhead and per-worker accumulator memory.
func maxWorkers() int {
	if m := 32 * runtime.NumCPU(); m > 256 {
		return m
	}
	return 256
}

// EffectiveWorkers is the single place worker counts are clamped and
// validated: negative values mean "auto" (DefaultWorkers), zero keeps
// the zero-value Options meaning of sequential execution, and absurd
// requests are capped. Both CLIs report this value so users see the
// parallelism they actually got.
func EffectiveWorkers(requested int) int {
	switch {
	case requested < 0:
		return DefaultWorkers()
	case requested == 0:
		return 1
	case requested > maxWorkers():
		return maxWorkers()
	}
	return requested
}

// prepare eagerly builds the graph's shared read-only indexes (CSR
// adjacency, label profiles, hub-neighbor bitmaps) so parallel census
// workers never race on a lazy build.
func prepare(g *graph.Graph) {
	g.BuildCSR()
	g.BuildProfiles()
	g.BuildHubBitmaps()
}

// ---------------------------------------------------------------------------
// Work-stealing scheduler
//
// The census workloads are degree-skewed: on preferential-attachment
// graphs a handful of hub focals cost orders of magnitude more than the
// median. Items are therefore ordered by descending estimated cost,
// grouped into chunks of roughly equal total cost, and dealt round-robin
// to per-worker deques — so the most expensive work starts first and no
// single worker is stuck with all of it. Owners pop their deque from the
// front (costliest chunks first); idle workers steal from other deques'
// backs (cheapest chunks, minimizing conflict with the owner).
//
// Stealing changes only WHICH worker runs an item, never the result:
// bodies write disjoint per-item slots or per-worker accumulators that
// merge commutatively (parallelMerge), so census tables stay
// bit-identical across worker counts and steal interleavings.

// schedChunksPerWorker controls chunk granularity: more chunks per
// worker means finer stealing at slightly more queue traffic.
const schedChunksPerWorker = 8

// stealDelay, when non-nil, is called before every steal attempt with
// the stealing worker's index. It exists for tests to inject randomized
// steal timing and must be nil in production.
var stealDelay func(worker int)

// globalMatchHook, when non-nil, is called at the top of every global
// match. It exists for tests to inject a failure on the coordinating
// goroutine and must be nil in production.
var globalMatchHook func()

// chunk is a half-open range of positions in the scheduler's item order.
type chunk struct{ start, end int32 }

// wsQueue is one worker's deque of chunks. A plain mutex suffices:
// operations are per-chunk, not per-item, so the lock is cold.
type wsQueue struct {
	mu     sync.Mutex
	chunks []chunk
	head   int
	tail   int // exclusive
}

func (q *wsQueue) popFront() (chunk, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head >= q.tail {
		return chunk{}, false
	}
	c := q.chunks[q.head]
	q.head++
	return c, true
}

func (q *wsQueue) popBack() (chunk, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head >= q.tail {
		return chunk{}, false
	}
	q.tail--
	return q.chunks[q.tail], true
}

// buildSchedule orders the items by descending cost (identity order when
// cost is nil) and cuts the order into chunks of roughly equal total
// cost. Items whose individual cost exceeds the chunk target become
// singleton chunks, so a hub focal never drags neighbors into its chunk.
//
//egolint:deterministic bit-identical merge contract (PR 1/PR 5): results must be equal across worker counts and steal timing
func buildSchedule(n, workers int, cost func(i int) int64) (ord []int32, chunks []chunk) {
	ord = make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	var costs []int64
	total := int64(n)
	if cost != nil {
		costs = make([]int64, n)
		total = 0
		for i := 0; i < n; i++ {
			c := cost(i)
			if c < 1 {
				c = 1
			}
			costs[i] = c
			total += c
		}
		slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(costs[b], costs[a]) })
	}
	target := total / int64(workers*schedChunksPerWorker)
	if target < 1 {
		target = 1
	}
	var acc int64
	start := 0
	for idx := 0; idx < n; idx++ {
		if costs != nil {
			acc += costs[ord[idx]]
		} else {
			acc++
		}
		if acc >= target {
			chunks = append(chunks, chunk{int32(start), int32(idx + 1)})
			start = idx + 1
			acc = 0
		}
	}
	if start < n {
		chunks = append(chunks, chunk{int32(start), int32(n)})
	}
	return ord, chunks
}

// runStealing executes every scheduled item across the workers with
// work stealing. body observes (executing worker, item index); gd (nil
// allowed) is polled per item.
//
//egolint:deterministic bit-identical merge contract (PR 1/PR 5): results must be equal across worker counts and steal timing
func runStealing(gd *guard, workers int, ord []int32, chunks []chunk, body func(w, i int)) {
	queues := make([]*wsQueue, workers)
	for w := range queues {
		queues[w] = &wsQueue{}
	}
	// Deal chunks round-robin in descending-cost order: chunk k (the
	// k-th costliest) goes to worker k mod workers, so every worker
	// starts on heavy work and light chunks land at the deque backs
	// where thieves take them first.
	for k, c := range chunks {
		q := queues[k%workers]
		q.chunks = append(q.chunks, c)
		q.tail++
	}
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			defer box.capture()
			own := queues[w]
			for {
				if gd.check() != nil {
					return
				}
				c, ok := own.popFront()
				if !ok {
					c, ok = stealFrom(queues, w)
				}
				if !ok {
					return
				}
				for idx := c.start; idx < c.end; idx++ {
					if gd.check() != nil {
						return
					}
					body(w, int(ord[idx]))
					gd.focalTick()
				}
			}
		}()
	}
	wg.Wait()
	box.rethrow()
}

// stealFrom scans the other deques for a chunk, taking from the back.
func stealFrom(queues []*wsQueue, w int) (chunk, bool) {
	for off := 1; off < len(queues); off++ {
		if stealDelay != nil {
			stealDelay(w)
		}
		if c, ok := queues[(w+off)%len(queues)].popBack(); ok {
			return c, true
		}
	}
	return chunk{}, false
}

// parallelFor runs body(w, i) for every i in [0, n) across up to
// `workers` goroutines; w is the executing worker's index, for bodies
// that keep per-worker state (scratch vectors, RNGs, counting runs).
// cost (nil means uniform) estimates each item's work and steers the
// work-stealing schedule. workers <= 1 (or n <= 1) runs inline. body
// must only touch per-item or per-worker state; stealing may run any
// item on any worker, so bodies must not rely on a fixed item→worker
// mapping for correctness.
//
// gd (nil allowed) is checked before each item: once it stops, no
// further items start and every worker drains within one item. Bodies
// with long inner loops tick the guard themselves for sub-item latency.
//
//egolint:deterministic bit-identical merge contract (PR 1/PR 5): results must be equal across worker counts and steal timing
func parallelFor(gd *guard, workers, n int, cost func(i int) int64, body func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if gd.check() != nil {
				return
			}
			body(0, i)
			gd.focalTick()
		}
		return
	}
	ord, chunks := buildSchedule(n, workers, cost)
	runStealing(gd, workers, ord, chunks, body)
}

// parallelMerge is parallelFor for bodies that accumulate into a count
// vector: each worker w gets a private int64 accumulator the same length
// as dst, and the vectors are summed into dst afterwards. Because int64
// addition is commutative and associative, the merged result is
// identical for every worker count and steal interleaving — parallel
// censuses stay bit-for-bit equal to sequential ones. workers <= 1
// accumulates directly into dst.
//
// On a guard stop, the per-worker vectors accumulated so far are still
// merged, so dst holds the partial census the typed errors carry.
//
//egolint:deterministic bit-identical merge contract (PR 1/PR 5): results must be equal across worker counts and steal timing
func parallelMerge(gd *guard, workers, n int, cost func(i int) int64, dst []int64, body func(w int, counts []int64, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		parallelFor(gd, 1, n, cost, func(_, i int) { body(0, dst, i) })
		return
	}
	perWorker := make([][]int64, workers)
	gd.chargeMem(int64(workers) * int64(len(dst)) * 8)
	for w := range perWorker {
		perWorker[w] = make([]int64, len(dst))
	}
	parallelFor(gd, workers, n, cost, func(w, i int) { body(w, perWorker[w], i) })
	// Merge in worker-index order; addition commutes, so the result is
	// independent of which worker executed which item.
	for _, pc := range perWorker {
		for i, c := range pc {
			dst[i] += c
		}
	}
}
