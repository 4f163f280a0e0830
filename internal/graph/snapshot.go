package graph

// A Snapshot is an immutable, epoch-stamped version of a graph: the read
// view of the MVCC pair ShardedWriter/Snapshot. Acquiring one is O(1) (an
// atomic pointer load inside ShardedWriter.Snapshot), holding one pins
// that version forever — later publishes never mutate it — and every read
// method of the underlying Graph is safe to call from any number of
// goroutines.
//
// Snapshots are produced by a ShardedWriter (shardedwriter.go) or by
// Freeze. The frozen Graph they wrap shares its adjacency storage with
// neighboring versions through copy-on-write of the dirty tail, so
// holding many snapshots of a slowly-mutating graph costs far less than
// many clones.
type Snapshot struct {
	epoch uint64
	g     *Graph
}

// Freeze marks g immutable and wraps it as an epoch-0 snapshot. After
// Freeze, every mutator on g panics; reads (including lazy CSR/profile
// builds) are safe under concurrency. Use a ShardedWriter to continue
// mutating: NewShardedWriter freezes its graph and hands back fresh
// versions per publish.
func Freeze(g *Graph) *Snapshot {
	g.frozen = true
	return &Snapshot{epoch: g.epoch, g: g}
}

// FreezeAt is Freeze with an explicit epoch stamp. Storage replay uses it
// to resume the epoch sequence of a reopened mutation log instead of
// restarting from zero.
func FreezeAt(g *Graph, epoch uint64) *Snapshot {
	g.epoch = epoch
	g.frozen = true
	return &Snapshot{epoch: epoch, g: g}
}

// Epoch returns the snapshot's version number: 0 for the writer's initial
// graph, incremented by every publish.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Graph returns the frozen graph this snapshot wraps. It must only be
// read; mutators panic.
func (s *Snapshot) Graph() *Graph { return s.g }

// NumNodes returns the node count of this version.
func (s *Snapshot) NumNodes() int { return s.g.NumNodes() }

// NumEdges returns the edge count of this version.
func (s *Snapshot) NumEdges() int { return s.g.NumEdges() }

// Directed reports whether the underlying graph is directed.
func (s *Snapshot) Directed() bool { return s.g.Directed() }

// Overlay reports the state of this version's CSR delta overlay: the
// number of nodes served from overlay rows rather than the shared flat
// arrays, and whether a CSR view exists at all (it builds lazily on the
// first traversal when the publish could not extend a parent view).
func (s *Snapshot) Overlay() (overlayRows int, built bool) {
	return s.g.CSRInfo()
}
