package core

import (
	"fmt"
	"slices"
	"sync"

	"egocensus/internal/graph"
	"egocensus/internal/match"
	"egocensus/internal/pattern"
)

// Maintainer keeps any number of registered census queries incrementally
// up to date against the snapshots a graph.ShardedWriter publishes. This
// extends the paper toward dynamic graphs (its algorithms are
// batch-only); deletions are not supported because the writer's graph is
// append-only.
//
// The maintainer holds no graph of its own. It pins the last snapshot it
// applied, S(e-1), and folds each published batch in once on the batch's
// own snapshot S(e); both are immutable. A batch is folded in as births,
// deaths, then one recount of the changed region:
//
//  1. Births. Every new match maps some positive pattern edge onto a new
//     edge (u, v), and the pattern's positive-edge graph is connected, so
//     the whole match lies in N_r(u) ∩ N_r(v) on S(e), r being that
//     graph's diameter. One masked CN run per new edge over that region
//     finds it; a match whose canonical key is new is registered. A match
//     born and killed within one batch is never found.
//  2. Deaths. Matches die only through negated edges (or predicates) the
//     batch completes: a live match containing both endpoints of a new
//     edge that fails EvalAll on S(e) dies.
//  3. Recount. Births and deaths patch one pivot index kept across
//     batches (ND-PVOT's, Algorithm 2), and its counting pass recounts on
//     S(e) only the nodes whose count can change: those containing a born
//     or dead match, and those within k-1 hops of a batch endpoint, the
//     only ones whose k-hop ball can grow (see apply).
//
// A label change on an existing node — or, for a pattern with
// predicates, an attribute write on an existing node or edge — can create
// and destroy matches anywhere, and rebuilds the query on S(e).
//
// Attach subscribes a maintainer to a writer with an unbounded queue and
// a worker goroutine, so publishes never wait on census maintenance;
// CatchUp blocks until the maintainer has applied every batch up to an
// epoch. Counts snapshots are served under the maintainer's lock.
type Maintainer struct {
	mu      sync.Mutex
	applied sync.Cond

	snap      *graph.Snapshot // last applied version, S(e-1) of the next batch
	queries   map[string]*maintained
	queue     []published
	queueCond sync.Cond
	stopped   bool
	workerErr error
}

// published is one queued batch with the snapshot it produced.
type published struct {
	s *graph.Snapshot
	d graph.Delta
}

// NewMaintainer starts maintenance from snapshot s: queries register
// against s, and batches are accepted strictly in epoch order from
// s.Epoch()+1 on.
func NewMaintainer(s *graph.Snapshot) *Maintainer {
	mt := &Maintainer{
		snap:    s,
		queries: map[string]*maintained{},
	}
	mt.applied.L = &mt.mu
	mt.queueCond.L = &mt.mu
	return mt
}

// Register adds a census query under a name, computing its initial state
// against the last applied snapshot. The query must track all nodes (nil
// Focal) and its pattern needs at least one positive edge: an
// isolated-node pattern would gain matches on AddNode, which no new edge
// explains. Registering a duplicate name or an unsupported spec fails.
func (mt *Maintainer) Register(name string, spec Spec, opt Options) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if _, dup := mt.queries[name]; dup {
		return fmt.Errorf("census: maintained query %q already registered", name)
	}
	g := mt.snap.Graph()
	if spec.Focal != nil {
		return fmt.Errorf("census: incremental maintenance tracks all nodes; Focal must be nil")
	}
	if err := spec.Validate(g); err != nil {
		return err
	}
	if !slices.ContainsFunc(spec.Pattern.Edges(), func(e pattern.Edge) bool { return !e.Negated }) {
		return fmt.Errorf("census: incremental maintenance requires a pattern with at least one positive edge")
	}
	q := &maintained{spec: spec, opt: opt, anchorIdx: spec.anchorNodes(), subNodes: spec.subNodesForKey()}
	q.rebuild(g)
	mt.queries[name] = q
	return nil
}

// Apply folds one published batch into every registered query: s is the
// snapshot the batch produced and d the batch, as ShardedWriter.Subscribe
// delivers them. Batches must arrive in epoch order; an already-applied
// epoch is skipped (idempotent replay), a gap is an error.
func (mt *Maintainer) Apply(s *graph.Snapshot, d graph.Delta) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.applyLocked(s, d)
}

func (mt *Maintainer) applyLocked(s *graph.Snapshot, d graph.Delta) error {
	epoch := mt.snap.Epoch()
	if d.Epoch <= epoch {
		return nil
	}
	if d.Epoch != epoch+1 || s.Epoch() != d.Epoch {
		return fmt.Errorf("census: delta epoch %d (snapshot %d) arrived with maintainer at %d (gap)", d.Epoch, s.Epoch(), epoch)
	}
	prev, cur := mt.snap.Graph(), s.Graph()
	var edges [][2]graph.NodeID
	relabeled, attrs := false, false
	for _, op := range d.Ops {
		switch op.Kind {
		case graph.OpAddNode:
		case graph.OpAddEdge:
			if op.A != op.B {
				edges = append(edges, [2]graph.NodeID{graph.NodeID(op.A), graph.NodeID(op.B)})
			}
		case graph.OpSetLabel:
			relabeled = relabeled || labelChanged(prev, cur, op.A)
		case graph.OpSetNodeAttr:
			if op.Key == graph.LabelAttr {
				relabeled = relabeled || labelChanged(prev, cur, op.A)
			} else {
				attrs = attrs || int(op.A) < prev.NumNodes()
			}
		case graph.OpSetEdgeAttr:
			attrs = attrs || int(op.A) < prev.NumEdges()
		default:
			return fmt.Errorf("census: delta epoch %d carries unknown op kind %d", d.Epoch, op.Kind)
		}
	}
	for _, q := range mt.queries {
		q.apply(cur, edges, relabeled || attrs && len(q.spec.Pattern.Predicates()) > 0)
	}
	mt.snap = s
	mt.applied.Broadcast()
	return nil
}

// labelChanged reports whether a pre-existing node's label differs
// between the two versions; a node the batch created has no matches yet.
func labelChanged(prev, cur *graph.Graph, n int32) bool {
	return int(n) < prev.NumNodes() && prev.LabelString(graph.NodeID(n)) != cur.LabelString(graph.NodeID(n))
}

// Attach subscribes the maintainer to w: every batch the writer publishes
// is queued with its snapshot and applied by a worker goroutine, so
// publishing never waits on census maintenance. The returned stop
// function detaches the worker (already-queued batches are dropped); the
// subscription on w remains but becomes a cheap no-op. The maintainer
// must be positioned at the writer's current epoch (or earlier batches
// must already be queued).
func (mt *Maintainer) Attach(w *graph.ShardedWriter) (stop func()) {
	w.Subscribe(func(s *graph.Snapshot, d graph.Delta) {
		mt.mu.Lock()
		if !mt.stopped {
			mt.queue = append(mt.queue, published{s, d})
			mt.queueCond.Signal()
		}
		mt.mu.Unlock()
	})
	go mt.worker()
	return func() {
		mt.mu.Lock()
		mt.stopped = true
		mt.queueCond.Broadcast()
		mt.applied.Broadcast()
		mt.mu.Unlock()
	}
}

func (mt *Maintainer) worker() {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	for {
		for len(mt.queue) == 0 && !mt.stopped {
			mt.queueCond.Wait()
		}
		if mt.stopped {
			return
		}
		p := mt.queue[0]
		mt.queue[0] = published{}
		mt.queue = mt.queue[1:]
		if err := mt.applyLocked(p.s, p.d); err != nil {
			mt.workerErr = err
			mt.stopped = true
			mt.applied.Broadcast()
			return
		}
	}
}

// CatchUp blocks until every batch up to epoch has been applied (or the
// maintainer stopped), returning the maintainer's position and any worker
// error.
func (mt *Maintainer) CatchUp(epoch uint64) (uint64, error) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	for mt.snap.Epoch() < epoch && !mt.stopped {
		mt.applied.Wait()
	}
	return mt.snap.Epoch(), mt.workerErr
}

// Epoch returns the last applied batch epoch.
func (mt *Maintainer) Epoch() uint64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.snap.Epoch()
}

// Counts returns a copy of a registered query's maintained per-node
// counts and the epoch they are valid at.
func (mt *Maintainer) Counts(name string) ([]int64, uint64, error) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	q, ok := mt.queries[name]
	if !ok {
		return nil, 0, fmt.Errorf("census: no maintained query %q", name)
	}
	return slices.Clone(q.counts), mt.snap.Epoch(), nil
}

// NumMatches returns the live match count of a registered query.
func (mt *Maintainer) NumMatches(name string) (int, error) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	q, ok := mt.queries[name]
	if !ok {
		return 0, fmt.Errorf("census: no maintained query %q", name)
	}
	return q.numAlive, nil
}

// Queries returns the registered query names.
func (mt *Maintainer) Queries() []string {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	names := make([]string, 0, len(mt.queries))
	for name := range mt.queries {
		names = append(names, name)
	}
	return names
}

// maintained is one registered query's state: a pivot index holding
// every match found so far (dead ones stay, flagged, so their keys keep
// deduplicating; only live ones sit in its buckets), an index from graph
// node to the matches containing it, and the per-node counts.
type maintained struct {
	spec Spec
	opt  Options

	counts    []int64
	ix        *pivotIndex
	alive     []bool
	keys      map[string]int // canonical binary match key -> index in ix.matches
	byNode    map[graph.NodeID][]int
	anchorIdx []int
	subNodes  []int
	keyBuf    []byte
	numAlive  int
}

// rebuild recomputes the query's state from scratch on g: the global
// match set and its pivot index, then every node's count.
func (q *maintained) rebuild(g *graph.Graph) {
	q.counts = make([]int64, g.NumNodes())
	q.ix = newPivotIndex(g.NumNodes(), q.spec, nil)
	q.alive = q.alive[:0]
	q.keys = map[string]int{}
	q.byNode = map[graph.NodeID][]int{}
	q.numAlive = 0
	matches, _, _ := globalMatchesGuarded(g, q.spec, q.opt, nil) // a nil guard never fails
	for _, m := range matches {
		q.insert(m)
	}
	countPivots(g, focalUnits(g, q.spec), []*pivotIndex{q.ix}, [][]int64{q.counts}, q.opt, nil)
}

// apply folds one batch into the query: cur is the graph of S(e), edges
// the batch's new non-loop edges, and rebuild set when the batch falls
// outside the incremental rules. Births and deaths update the match set
// and the pivot index; then one countPivots pass on S(e) recounts the
// region of nodes whose count can change, and nothing outside it:
//
//   - N_{S(e)}[M] of every match M born or killed by the batch. A dead
//     match's N_{S(e-1)}[M] is a subset of it.
//   - For k >= 1, the nodes within k-1 hops of a batch endpoint: only
//     their balls can grow, since the shortest new path from a node
//     reaches its first new edge over old edges. At k = 0 no ball grows.
func (q *maintained) apply(cur *graph.Graph, edges [][2]graph.NodeID, rebuild bool) {
	if rebuild {
		q.rebuild(cur)
		return
	}
	q.counts = append(q.counts, make([]int64, cur.NumNodes()-len(q.counts))...)
	q.ix.pmi = append(q.ix.pmi, make([][]int32, cur.NumNodes()-len(q.ix.pmi))...)
	var dying []int
	for _, e := range edges {
		for _, mi := range q.byNode[e[0]] {
			if q.alive[mi] && slices.Contains(q.ix.matches[mi], e[1]) {
				dying = append(dying, mi)
			}
		}
	}
	var changed []graph.NodeID
	for _, mi := range dying {
		if m := q.ix.matches[mi]; q.alive[mi] && !q.spec.Pattern.EvalAll(cur, m) {
			q.alive[mi] = false
			q.numAlive--
			q.ix.remove(mi)
			changed = q.appendContaining(changed, cur, m)
		}
	}

	r := 0
	for _, row := range q.spec.Pattern.Distances() {
		r = max(r, slices.Max(row))
	}
	s, t := graph.AcquireScratch(cur.NumNodes()), graph.AcquireScratch(cur.NumNodes())
	defer s.Release()
	defer t.Release()
	var region graph.Reach // N_r(u) ∩ N_r(v): every match using the edge (u, v) lies in it
	for _, e := range edges {
		region = cur.KHop(e[0], r, s).Intersect(cur.KHop(e[1], r, t))
		match.CN{}.EachWithin(cur, q.spec.Pattern, &region, q.subNodes, func(m pattern.Match) {
			if m, born := q.insert(m); born {
				changed = q.appendContaining(changed, cur, m)
			}
		})
	}
	if k := q.spec.K; k >= 1 {
		ends := make([]graph.NodeID, 0, 2*len(edges))
		for _, e := range edges {
			ends = append(ends, e[0], e[1])
		}
		changed = append(changed, cur.KHopFrom(ends, k-1, s).Nodes...)
	}
	slices.Sort(changed)
	us := units{k: q.spec.K, nodes: slices.Compact(changed)}
	countPivots(cur, us, []*pivotIndex{q.ix}, [][]int64{q.counts}, q.opt, nil)
}

// insert registers a copy of m, live, unless its canonical key (the
// binary Pattern.AppendKey the batch drivers dedup with) is already
// known. It returns the registered copy and whether m was new.
func (q *maintained) insert(m pattern.Match) (pattern.Match, bool) {
	q.keyBuf = q.spec.Pattern.AppendKey(q.keyBuf[:0], m, q.subNodes)
	if _, dup := q.keys[string(q.keyBuf)]; dup {
		return nil, false
	}
	m = slices.Clone(m)
	idx := q.ix.add(m)
	q.alive = append(q.alive, true)
	q.keys[string(q.keyBuf)] = idx
	q.numAlive++
	for i, n := range m {
		if !slices.Contains(m[:i], n) {
			q.byNode[n] = append(q.byNode[n], idx)
		}
	}
	return m, true
}

// appendContaining appends N_g[M] to dst: the nodes whose k-hop
// neighborhood on g contains every anchor image of m (per-anchor BFS
// intersection, as in PT-BAS).
func (q *maintained) appendContaining(dst []graph.NodeID, g *graph.Graph, m pattern.Match) []graph.NodeID {
	anchors := matchAnchors(q.spec, q.anchorIdx, m)
	s, t := graph.AcquireScratch(g.NumNodes()), graph.AcquireScratch(g.NumNodes())
	defer s.Release()
	defer t.Release()
	in := g.KHop(anchors[0], q.spec.K, s)
	for _, a := range anchors[1:] {
		in = in.Intersect(g.KHop(a, q.spec.K, t))
	}
	return append(dst, in.Nodes...)
}
