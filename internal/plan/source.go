package plan

import (
	"sync"

	"egocensus/internal/graph"
)

// Source supplies a graph to plan against and execute on. Planning only
// needs the statistics snapshot — cheap for every backend — while
// execution hydrates a full in-memory graph lazily, so a disk store can
// answer EXPLAIN (and the optimizer can price a query) before paying
// materialization. storage.Store implements this contract; FromGraph
// adapts an already-materialized graph.
type Source interface {
	// GraphStats returns the statistics snapshot. Implementations should
	// derive it from resident metadata where possible and memoize it.
	GraphStats() (*graph.Stats, error)
	// Graph materializes (or returns the cached) full graph for execution.
	Graph() (*graph.Graph, error)
}

// GraphSource adapts an in-memory graph to the Source interface,
// memoizing its statistics snapshot once, also when the first queries
// on an engine plan concurrently.
type GraphSource struct {
	g         *graph.Graph
	statsOnce sync.Once
	stats     *graph.Stats
}

// FromGraph wraps an in-memory graph as a Source.
func FromGraph(g *graph.Graph) *GraphSource {
	return &GraphSource{g: g}
}

// GraphStats implements Source.
func (s *GraphSource) GraphStats() (*graph.Stats, error) {
	s.statsOnce.Do(func() { s.stats = graph.ComputeStats(s.g) })
	return s.stats, nil
}

// Graph implements Source.
func (s *GraphSource) Graph() (*graph.Graph, error) { return s.g, nil }

// SnapshotSource extends Source for versioned (MVCC) backends. A query
// pins one immutable snapshot and both plans and executes against it, so
// EXPLAIN's statistics describe exactly the version the execution would
// see — even while a writer keeps publishing behind it.
type SnapshotSource interface {
	Source
	// Snapshot returns the current published version (O(1)).
	Snapshot() *graph.Snapshot
	// StatsAt returns the statistics of one pinned snapshot.
	// Implementations should memoize per epoch: repeated planning against
	// an unchanged version must not recompute.
	StatsAt(s *graph.Snapshot) (*graph.Stats, error)
}

// ShardedWriterSource adapts a graph.ShardedWriter as a SnapshotSource:
// every call observes the writer's latest published snapshot, and
// statistics are memoized per epoch so only the first query after a
// publish pays the recompute. Statistics come from one ComputeStats pass
// over the snapshot's graph whatever the writer's shard count: shards
// route ingest and durability, not reads.
type ShardedWriterSource struct {
	w *graph.ShardedWriter

	mu         sync.Mutex
	statsEpoch uint64
	stats      *graph.Stats
}

// FromShardedWriter wraps a sharded writer's published snapshots as a
// Source.
func FromShardedWriter(w *graph.ShardedWriter) *ShardedWriterSource {
	return &ShardedWriterSource{w: w}
}

// Snapshot implements SnapshotSource.
func (s *ShardedWriterSource) Snapshot() *graph.Snapshot { return s.w.Snapshot() }

// StatsAt implements SnapshotSource, memoizing the newest epoch's result.
func (s *ShardedWriterSource) StatsAt(snap *graph.Snapshot) (*graph.Stats, error) {
	s.mu.Lock()
	if s.stats != nil && s.statsEpoch == snap.Epoch() {
		st := s.stats
		s.mu.Unlock()
		return st, nil
	}
	s.mu.Unlock()
	// Compute outside the lock: stats over a frozen snapshot are pure.
	st := graph.ComputeStats(snap.Graph())
	st.Epoch = snap.Epoch()
	s.mu.Lock()
	// Last writer wins; only overwrite a cache for an older epoch so a
	// concurrent computation for a newer version is not clobbered.
	if s.stats == nil || s.statsEpoch <= snap.Epoch() {
		s.statsEpoch, s.stats = snap.Epoch(), st
	}
	s.mu.Unlock()
	return st, nil
}

// GraphStats implements Source against the latest published version.
func (s *ShardedWriterSource) GraphStats() (*graph.Stats, error) {
	return s.StatsAt(s.Snapshot())
}

// Graph implements Source against the latest published version.
func (s *ShardedWriterSource) Graph() (*graph.Graph, error) {
	return s.Snapshot().Graph(), nil
}
