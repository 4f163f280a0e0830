package storage

import "egocensus/internal/graph"

// This file makes Store a plan.Source: the query planner can price and
// EXPLAIN queries against a disk store using only the resident indexes,
// deferring full materialization until a query actually executes.

// GraphStats derives the planner's statistics snapshot from the resident
// adjacency index and label vector — no payload reads, no
// materialization. Each node's adjacency record is an 8-byte count
// header followed by 8 bytes per stored half-edge, so its degree is
// recoverable from consecutive index offsets alone. The snapshot is
// computed once and memoized; concurrent callers share it.
func (st *Store) GraphStats() (*graph.Stats, error) {
	st.statsOnce.Do(func() { st.stats = st.computeStats() })
	return st.stats, nil
}

func (st *Store) computeStats() *graph.Stats {
	s := &graph.Stats{
		Edges:       st.NumEdges(),
		Directed:    st.Directed(),
		LabelCounts: map[string]int{},
	}
	for n := 0; n < st.NumNodes(); n++ {
		d := int((st.adjIndex[n+1]-st.adjIndex[n])/8) - 1
		s.AddDegree(d)
		if l := st.nodeLabel[n]; l != graph.NoLabel {
			s.LabelCounts[st.labels.Name(l)]++
		}
	}
	return s
}

// Graph materializes the stored graph on first use and caches it, so
// repeated queries over one store pay the load once. Materialization is
// single-flight: concurrent first callers wait for one load instead of
// each hydrating a copy. It reads whole sections and never touches the
// block cache. A failed load is not memoized; the next call retries.
func (st *Store) Graph() (*graph.Graph, error) {
	st.graphMu.Lock()
	defer st.graphMu.Unlock()
	if st.graph != nil {
		return st.graph, nil
	}
	g, err := st.Materialize()
	if err != nil {
		return nil, err
	}
	st.graph = g
	return g, nil
}
