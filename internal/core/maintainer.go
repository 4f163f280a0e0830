package core

import (
	"fmt"
	"sync"

	"egocensus/internal/graph"
)

// Maintainer keeps any number of registered census queries incrementally
// up to date against a stream of published mutation batches (graph.Delta)
// from a graph.ShardedWriter. It owns a private mutable replica of the
// graph — cloned from the snapshot it starts at — so it controls exactly
// when each mutation lands: for an edge insertion, every query's pre-insertion
// state is collected first (Incremental.beforeAdd), the replica mutates
// once, then every query applies its update (afterAdd). Label changes
// fall outside the incremental update rules and trigger a per-query
// rebuild at the end of the batch.
//
// Attach subscribes a maintainer to a writer with an unbounded queue and
// a worker goroutine, so publishes never wait on census maintenance;
// CatchUp blocks until the maintainer has applied every batch up to an
// epoch. Counts snapshots are served under the maintainer's lock.
type Maintainer struct {
	mu      sync.Mutex
	applied sync.Cond

	g         *graph.Graph // private mutable replica
	epoch     uint64       // last applied batch
	queries   map[string]*Incremental
	queue     []graph.Delta
	queueCond sync.Cond
	stopped   bool
	workerErr error
}

// NewMaintainer starts maintenance from snapshot s: the replica graph is
// a deep clone of s, and deltas are accepted strictly in epoch order from
// s.Epoch()+1 on.
func NewMaintainer(s *graph.Snapshot) *Maintainer {
	mt := &Maintainer{
		g:       s.Graph().Clone(),
		epoch:   s.Epoch(),
		queries: map[string]*Incremental{},
	}
	mt.applied.L = &mt.mu
	mt.queueCond.L = &mt.mu
	return mt
}

// Register adds a census query under a name, computing its initial state
// against the replica's current version. Registering a duplicate name or
// an unsupported spec (see NewIncremental) fails.
func (mt *Maintainer) Register(name string, spec Spec, opt Options) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if _, dup := mt.queries[name]; dup {
		return fmt.Errorf("census: maintained query %q already registered", name)
	}
	inc, err := NewIncremental(mt.g, spec, opt)
	if err != nil {
		return err
	}
	mt.queries[name] = inc
	return nil
}

// Apply folds one published batch into the replica and every registered
// query. Batches must arrive in epoch order; an already-applied epoch is
// skipped (idempotent replay), a gap is an error.
func (mt *Maintainer) Apply(d graph.Delta) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.applyLocked(d)
}

func (mt *Maintainer) applyLocked(d graph.Delta) error {
	if d.Epoch <= mt.epoch {
		return nil
	}
	if d.Epoch != mt.epoch+1 {
		return fmt.Errorf("census: delta epoch %d arrived with maintainer at %d (gap)", d.Epoch, mt.epoch)
	}
	needRebuild := false
	for _, op := range d.Ops {
		switch op.Kind {
		case graph.OpAddNode:
			mt.g.AddNode()
			for _, inc := range mt.queries {
				inc.noteNode()
			}
		case graph.OpAddEdge:
			u, v := graph.NodeID(op.A), graph.NodeID(op.B)
			if needRebuild {
				// Incremental state is already invalid this batch; just
				// mutate the replica, the rebuild below covers everything.
				mt.g.AddEdge(u, v)
				continue
			}
			txns := make(map[string]*edgeTxn, len(mt.queries))
			for name, inc := range mt.queries {
				txns[name] = inc.beforeAdd(u, v)
			}
			mt.g.AddEdge(u, v)
			for name, inc := range mt.queries {
				inc.afterAdd(txns[name])
			}
		case graph.OpSetLabel:
			if mt.g.LabelString(graph.NodeID(op.A)) != op.Val {
				mt.g.SetLabel(graph.NodeID(op.A), op.Val)
				needRebuild = true
			}
		case graph.OpSetNodeAttr:
			if op.Key == graph.LabelAttr {
				if mt.g.LabelString(graph.NodeID(op.A)) != op.Val {
					mt.g.SetLabel(graph.NodeID(op.A), op.Val)
					needRebuild = true
				}
				continue
			}
			// Non-label attributes never participate in pattern matching.
			mt.g.SetNodeAttr(graph.NodeID(op.A), op.Key, op.Val)
		case graph.OpSetEdgeAttr:
			mt.g.SetEdgeAttr(graph.EdgeID(op.A), op.Key, op.Val)
		default:
			return fmt.Errorf("census: delta epoch %d carries unknown op kind %d", d.Epoch, op.Kind)
		}
	}
	if needRebuild {
		for _, inc := range mt.queries {
			inc.rebuild()
		}
	}
	mt.epoch = d.Epoch
	mt.applied.Broadcast()
	return nil
}

// Attach subscribes the maintainer to w: every batch the writer publishes
// is queued and applied by a worker goroutine, so publishing never waits
// on census maintenance. The returned stop function detaches the worker
// (already-queued batches are dropped); the subscription on w remains but
// becomes a cheap no-op. The maintainer must be positioned at the
// writer's current epoch (or earlier batches must already be queued).
func (mt *Maintainer) Attach(w *graph.ShardedWriter) (stop func()) {
	w.Subscribe(func(_ *graph.Snapshot, d graph.Delta) {
		mt.mu.Lock()
		if !mt.stopped {
			mt.queue = append(mt.queue, d)
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
		d := mt.queue[0]
		mt.queue = mt.queue[1:]
		if err := mt.applyLocked(d); err != nil {
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
	for mt.epoch < epoch && !mt.stopped {
		mt.applied.Wait()
	}
	return mt.epoch, mt.workerErr
}

// Epoch returns the last applied batch epoch.
func (mt *Maintainer) Epoch() uint64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.epoch
}

// Counts returns a copy of a registered query's maintained per-node
// counts and the epoch they are valid at.
func (mt *Maintainer) Counts(name string) ([]int64, uint64, error) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	inc, ok := mt.queries[name]
	if !ok {
		return nil, 0, fmt.Errorf("census: no maintained query %q", name)
	}
	return append([]int64(nil), inc.Counts()...), mt.epoch, nil
}

// NumMatches returns the live match count of a registered query.
func (mt *Maintainer) NumMatches(name string) (int, error) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	inc, ok := mt.queries[name]
	if !ok {
		return 0, fmt.Errorf("census: no maintained query %q", name)
	}
	return inc.NumMatches(), nil
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
