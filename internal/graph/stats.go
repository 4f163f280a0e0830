package graph

// Stats is an immutable statistical snapshot of a graph: counts, degree
// moments, and label frequencies. It is what the query planner's cost
// model consumes — cheap to compute (one pass over the degree and label
// vectors), and buildable from a disk store's resident indexes without
// materializing the graph (see storage.Store.GraphStats).
type Stats struct {
	// Nodes and Edges are |V| and |E|.
	Nodes int
	Edges int
	// Directed reports the edge semantics.
	Directed bool
	// MaxDegree is the largest node degree (out+in for directed graphs).
	MaxDegree int
	// DegreeMoments[j] holds the j-th falling-factorial degree moment
	// Σ_u d_u·(d_u-1)···(d_u-j+1). Index 0 is the node count and index 1
	// the degree sum (2|E| for undirected graphs). Falling factorials are
	// what the configuration-model match estimates need: the probability
	// that nodes u and v are adjacent is approximately d_u·d_v / Σd, and
	// picking j distinct neighbors of u contributes d_u^(j).
	DegreeMoments [MaxMoment + 1]float64
	// LabelCounts maps each label name to the number of nodes carrying it.
	// Unlabeled nodes are not counted.
	LabelCounts map[string]int
	// Epoch identifies the snapshot version these statistics describe.
	// Versioned sources stamp it from the snapshot they were computed
	// against; static sources leave it zero. Plan caches key on it so a
	// plan costed against stale statistics is never reused after a
	// publish.
	Epoch uint64
}

// MaxMoment is the highest falling-factorial degree moment tracked.
// Pattern nodes of higher degree clamp to it.
const MaxMoment = 4

// ComputeStats takes a statistics snapshot of g in one pass.
func ComputeStats(g *Graph) *Stats {
	s := &Stats{
		Edges:       g.NumEdges(),
		Directed:    g.Directed(),
		LabelCounts: map[string]int{},
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := NodeID(i)
		s.AddDegree(g.Degree(n))
		if l := g.Label(n); l != NoLabel {
			s.LabelCounts[g.Labels().Name(l)]++
		}
	}
	return s
}

// AddDegree folds one node of degree d into the snapshot. Builders that
// derive degrees without a Graph (e.g. a disk store's adjacency index) use
// it to accumulate the moments; ComputeStats uses it internally.
func (s *Stats) AddDegree(d int) {
	s.Nodes++
	if d > s.MaxDegree {
		s.MaxDegree = d
	}
	ff := 1.0
	s.DegreeMoments[0]++
	for j := 1; j <= MaxMoment; j++ {
		if d-j+1 <= 0 {
			break
		}
		ff *= float64(d - j + 1)
		s.DegreeMoments[j] += ff
	}
}

// MeanDegree returns the average degree (0 for the empty graph).
func (s *Stats) MeanDegree() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return s.DegreeMoments[1] / float64(s.Nodes)
}

// FallingMoment returns Σ_u d_u^(j), clamping j to the tracked range.
func (s *Stats) FallingMoment(j int) float64 {
	if j < 0 {
		j = 0
	}
	if j > MaxMoment {
		j = MaxMoment
	}
	return s.DegreeMoments[j]
}

// Branching is the expected BFS expansion factor after the first hop:
// E[d·(d-1)] / E[d], the mean residual degree of a neighbor reached by
// following a random edge. Heavy-tailed graphs have Branching much larger
// than MeanDegree, which is why neighborhood sizes explode with k.
func (s *Stats) Branching() float64 {
	if s.DegreeMoments[1] == 0 {
		return 0
	}
	return s.DegreeMoments[2] / s.DegreeMoments[1]
}

// LabelFreq returns the fraction of nodes carrying the label (0 when the
// label is unknown or the graph is empty).
func (s *Stats) LabelFreq(name string) float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.LabelCounts[name]) / float64(s.Nodes)
}

// NumLabels returns the number of distinct labels in use.
func (s *Stats) NumLabels() int { return len(s.LabelCounts) }

// LabelMatchProb is the probability that two independently drawn nodes
// carry the same (non-empty) label: Σ_L freq(L)². It estimates the
// selectivity of label-equality predicates such as [?A.LABEL=?B.LABEL].
func (s *Stats) LabelMatchProb() float64 {
	p := 0.0
	for _, c := range s.LabelCounts {
		f := float64(c) / float64(s.Nodes)
		p += f * f
	}
	return p
}

// NeighborhoodNodes estimates the expected size of a k-hop neighborhood
// |S(n, k)| via the branching process d̄ · b^(j-1) per hop, capped at |V|.
func (s *Stats) NeighborhoodNodes(k int) float64 {
	n := float64(s.Nodes)
	if n == 0 {
		return 0
	}
	total, frontier := 1.0, 1.0
	expand := s.MeanDegree()
	for j := 1; j <= k; j++ {
		frontier *= expand
		total += frontier
		if total >= n {
			return n
		}
		b := s.Branching()
		if b < 1 {
			b = 1
		}
		expand = b
	}
	return total
}

// NeighborhoodEdges estimates the half-edges touched by a k-hop BFS:
// every reached node scans its adjacency list. Capped at the total
// half-edge count.
func (s *Stats) NeighborhoodEdges(k int) float64 {
	e := s.NeighborhoodNodes(k) * s.MeanDegree()
	if cap := s.DegreeMoments[1]; e > cap {
		return cap
	}
	return e
}

// EdgeProb is the probability that an ordered pair of distinct random
// nodes is adjacent under a uniform (Erdős–Rényi) model. The cost model
// uses the configuration-model estimate instead where degrees matter.
func (s *Stats) EdgeProb() float64 {
	n := float64(s.Nodes)
	if n < 2 {
		return 0
	}
	if s.Directed {
		return float64(s.Edges) / (n * (n - 1))
	}
	return 2 * float64(s.Edges) / (n * (n - 1))
}
