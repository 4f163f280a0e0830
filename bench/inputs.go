package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/serve"
)

// topologySeed fixes the preferential-attachment wiring for every run.
// A BA graph's hub degrees and hub labels do not average out at any size:
// across wiring seeds the labelled census cost moved by ±30 % at n=20000
// (see README "Why the wiring is fixed"), far above any regression bound.
// Labels follow the wiring (degree rank modulo numLabels) for the same
// reason: which of the top hubs share a label decides how many labelled
// triangles exist at all. --seed drives everything else: node identities,
// focal buckets, request order and the ingest edge stream.
const topologySeed = 20120401

// subSeed derives an independent stream seed (splitmix64 step) so no two
// generators of one run share a sequence.
func subSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// inputs is everything one run feeds the program, generated from the
// workload shape and the seed alone.
type inputs struct {
	wl   *workload
	seed int64
	g    *graph.Graph
	// bucketNodes[b] lists the nodes whose bucket attribute is "b<b>",
	// ascending: the focal set of `WHERE bucket = $b`, and the row order
	// of its result.
	bucketNodes [][]graph.NodeID
	// requests holds one query per (statement, bucket) key in a seeded
	// order shared by all clients, so the Zipf head is the same keys for
	// each of them.
	requests []request
}

func bucketName(b int) string { return "b" + strconv.Itoa(b) }

// newInputs builds the workload's graph. Nodes are renumbered by a seeded
// permutation. A workload that sends statements has buckets, dealt in
// degree order, a seeded shuffle within each run of `buckets` consecutive
// ranks, so every bucket of every seed gets the same share of hubs and
// leaves and the work per operation is comparable across buckets and
// across seeds.
func newInputs(wl *workload, seed int64) *inputs {
	topo := gen.PreferentialAttachment(wl.nodes, edgesPerNode, topologySeed)
	n := topo.NumNodes()
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	perm := rng.Perm(n)

	g := graph.New(false)
	g.AddNodes(n)
	for e := 0; e < topo.NumEdges(); e++ {
		ed := topo.Edge(graph.EdgeID(e))
		g.AddEdge(graph.NodeID(perm[ed.From]), graph.NodeID(perm[ed.To]))
	}

	byDegree := make([]int, n)
	for i := range byDegree {
		byDegree[i] = i
	}
	sort.SliceStable(byDegree, func(i, j int) bool {
		return topo.Degree(graph.NodeID(byDegree[i])) > topo.Degree(graph.NodeID(byDegree[j]))
	})
	in := &inputs{wl: wl, seed: seed, g: g, bucketNodes: make([][]graph.NodeID, wl.buckets)}
	for rank, i := range byDegree {
		g.SetLabel(graph.NodeID(perm[i]), gen.LabelName(rank%numLabels))
	}
	for lo := 0; wl.buckets > 0 && lo < n; lo += wl.buckets {
		order := rng.Perm(wl.buckets)
		for j := 0; j < wl.buckets && lo+j < n; j++ {
			node, b := graph.NodeID(perm[byDegree[lo+j]]), order[j]
			g.SetNodeAttr(node, "bucket", bucketName(b))
			in.bucketNodes[b] = append(in.bucketNodes[b], node)
		}
	}
	for _, nodes := range in.bucketNodes {
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	}
	for si, st := range wl.stmts {
		for b := 0; b < wl.buckets; b++ {
			body, err := json.Marshal(serve.QueryRequest{
				Query:   st.text,
				Params:  map[string]string{"b": bucketName(b)},
				NoCache: wl.noCache,
			})
			if err != nil {
				panic(err) // strings and a bool always marshal
			}
			in.requests = append(in.requests, request{stmt: si, bucket: b, body: body})
		}
	}
	rng.Shuffle(len(in.requests), func(i, j int) { in.requests[i], in.requests[j] = in.requests[j], in.requests[i] })
	return in
}

// request is one generated query: the body goes to the program, the key
// stays with the benchmark to pick the reference answer.
type request struct {
	stmt, bucket int
	body         []byte
}

// requestStream generates one client's requests. The program under test
// only ever sees the bodies.
type requestStream struct {
	keys []request
	pos  int
	zipf *rand.Zipf
}

// newRequestStream returns client's stream: a cycle through every key
// (each client starting at its own offset), or Zipf(1.1) draws over the
// keys when the workload asks for skew and everyKey does not override it.
func newRequestStream(in *inputs, client int, everyKey bool) *requestStream {
	s := &requestStream{keys: in.requests, pos: client * len(in.requests) / queryClients}
	if in.wl.zipf && !everyKey {
		draw := rand.New(rand.NewSource(subSeed(in.seed, 3+uint64(client))))
		s.zipf = rand.NewZipf(draw, 1.1, 1, uint64(len(s.keys)-1))
	}
	return s
}

func (s *requestStream) next() request {
	if s.zipf != nil {
		return s.keys[s.zipf.Uint64()]
	}
	r := s.keys[s.pos%len(s.keys)]
	s.pos++
	return r
}

// edgeStream generates the ingest edges: uniform random endpoint pairs,
// never a self loop. Replaying a stream from the same seed rebuilds the
// reference graph the durable store is checked against.
type edgeStream struct {
	rng *rand.Rand
	n   int
}

func newEdgeStream(in *inputs) *edgeStream {
	return &edgeStream{rng: rand.New(rand.NewSource(subSeed(in.seed, 9))), n: in.g.NumNodes()}
}

func (s *edgeStream) next() (from, to graph.NodeID) {
	a, b := s.rng.Intn(s.n), s.rng.Intn(s.n-1)
	if b >= a {
		b++
	}
	return graph.NodeID(a), graph.NodeID(b)
}

// sampleNodes returns count distinct seeded nodes for the graph probes.
func (in *inputs) sampleNodes(count int) []graph.NodeID {
	rng := rand.New(rand.NewSource(subSeed(in.seed, 10)))
	out := make([]graph.NodeID, 0, count)
	for _, i := range rng.Perm(in.g.NumNodes()) {
		if len(out) == count {
			break
		}
		out = append(out, graph.NodeID(i))
	}
	return out
}
