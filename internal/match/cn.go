package match

import (
	"bytes"
	"math"
	"slices"
	"sync"

	"egocensus/internal/bitset"
	"egocensus/internal/graph"
	"egocensus/internal/pattern"
)

// CN is the paper's candidate-neighbor pattern matching algorithm
// (Algorithm 1): profile-filtered candidates, per-candidate candidate
// neighbor sets, simultaneous pruning of both, and match extraction that
// joins candidate neighbor sets instead of scanning candidate sets.
//
// A run has two parts. The candidate space (steps 1–3: candidates,
// candidate neighbor sets, pruning) is built serially and is read-only
// afterwards. Extraction (the join) runs on extractors, each with its
// own assignment, membership stamps and output; several extractors can
// share one space, each taking a share of the root candidates.
//
// The space lives on a reusable runner: candidate membership and
// positions live in epoch-stamped dense planes, candidate lists and
// candidate neighbor sets are carved from grow-only per-plane arenas, and
// pattern-derived structures (direction requirements, compiled label
// profiles, search order, back edges, symmetry-breaking conditions) are
// compiled once per (graph, pattern) pair and cached. Candidate-neighbor
// construction for high-degree nodes runs on the bitset kernels: the
// node's cached hub bitmap is ANDed against a per-pattern-node candidate
// bitmap, replacing one membership probe per adjacency entry with one
// word-AND per 64 nodes. Besides Embeddings, CN offers the two entry
// points the census drivers call: Matches (the distinct match set, one
// embedding per subgraph, extracted in parallel) and NewCountRun
// (distinct-match counting inside a node subset, in place on the parent
// graph, with no per-call heap allocation in steady state).
type CN struct {
	// Stop, when non-nil, is polled (epoch-counted) during candidate
	// construction, pruning, and extraction; once it returns true the run
	// winds down and returns the embeddings found so far. The census
	// drivers set it to their guard's stop poll.
	Stop func() bool
}

// Name implements Matcher.
func (CN) Name() string { return "CN" }

// Embeddings implements Matcher.
func (c CN) Embeddings(g *graph.Graph, p *pattern.Pattern) []pattern.Match {
	return c.embeddingsWithin(g, p, nil)
}

// embeddingsWithin enumerates the embeddings whose every image node lies
// in `within` (nil means the whole graph), matching directly against the
// parent graph. Because an induced neighborhood subgraph contains exactly
// the parent edges between its nodes, masked matching is equivalent to
// extracting the subgraph and matching inside it — minus the extraction.
// The embeddings are views into one shared arena.
func (c CN) embeddingsWithin(g *graph.Graph, p *pattern.Pattern, within NodeSet) []pattern.Match {
	r := getRunner(c.Stop)
	defer putRunner(r)
	if !r.build(g, p, within) {
		return nil
	}
	x := &r.x
	x.reset(&r.cnSpace, nil)
	x.collect = true
	x.extractAll()
	return views(x.takeOut(), p.NumNodes())
}

// Matches returns the paper's match set M: the distinct matches of p in
// g under Deduplicate's identity (subNodes participates for COUNTSP
// semantics), in Deduplicate's lexicographic order, plus the number of
// embeddings the search emitted before any deduplication. The result
// equals Deduplicate(p, Embeddings(g, p), subNodes) as a set and does not
// depend on sched.Workers. Extraction enforces the pattern's
// symmetry-breaking conditions, so it emits one embedding per orbit of
// the automorphism group instead of every automorphic image; the key
// deduplication runs only when that group is smaller than the group of
// key-preserving permutations (pattern.SymmetryBreak.Distinct). With
// more than one worker, blocks of root candidates are split over sched
// and every worker extracts into its own arena. The result is sorted
// lexicographically, so it is the same at any worker count.
func (c CN) Matches(g *graph.Graph, p *pattern.Pattern, subNodes []int, sched Scheduler) ([]pattern.Match, int) {
	r := getRunner(c.Stop)
	defer putRunner(r)
	if !r.build(g, p, nil) {
		return nil, 0
	}
	brk := r.pc.breakFor(subNodes)
	// Pruning left the live root candidates; only they have work.
	root := r.pc.order[0]
	roots := r.roots[:0]
	for _, c := range r.cand[root] {
		if r.live(root, c) {
			roots = append(roots, c)
		}
	}
	r.roots = roots
	workers, forEach := sched.Workers, sched.ForEach
	if workers <= 1 || forEach == nil {
		workers, forEach = 1, serialForEach
	}
	// Contiguous blocks of roots, several per worker, keep scheduling
	// cheap; the pool balances them by total degree. Concatenating the
	// blocks' output in block order gives the same arena at any worker
	// count.
	nb := min(len(roots), workers*rootBlocksPerWorker)
	block := func(b int) []graph.NodeID { return roots[b*len(roots)/nb : (b+1)*len(roots)/nb] }
	cost := func(b int) int64 {
		c := int64(0)
		for _, n := range block(b) {
			c += 1 + int64(g.Degree(n))
		}
		return c
	}
	xs := make([]*cnExtractor, workers)
	spans := make([]struct{ w, start, end int }, nb)
	forEach(nb, cost, func(w, b int) {
		x := xs[w]
		if x == nil {
			x = extractorPool.Get().(*cnExtractor)
			x.reset(&r.cnSpace, brk)
			x.collect = true
			xs[w] = x
		}
		start := len(x.out)
		for _, c := range block(b) {
			x.extractRoot(c)
		}
		spans[b].w, spans[b].start, spans[b].end = w, start, len(x.out)
	})
	total, embeddings := 0, 0
	for _, x := range xs {
		if x != nil {
			total += len(x.out)
			embeddings += x.emitted
		}
	}
	flat := make([]graph.NodeID, 0, total)
	for _, sp := range spans {
		if sp.end > sp.start {
			flat = append(flat, xs[sp.w].out[sp.start:sp.end]...)
		}
	}
	for _, x := range xs {
		if x != nil {
			x.sp, x.out = nil, x.out[:0]
			extractorPool.Put(x)
		}
	}
	ms := views(flat, p.NumNodes())
	if root == 0 {
		// Roots were extracted in ascending order, so the matches are
		// already grouped by m[0]: sorting each group completes the order.
		for lo := 0; lo < len(ms); {
			hi := lo + 1
			for hi < len(ms) && ms[hi][0] == ms[lo][0] {
				hi++
			}
			slices.SortFunc(ms[lo:hi], slices.Compare[pattern.Match])
			lo = hi
		}
	} else {
		slices.SortFunc(ms, slices.Compare[pattern.Match])
	}
	if !brk.distinct {
		// Key classes are unions of orbits here: keep the first (the
		// lexicographically smallest) embedding of each.
		r.ks.reset()
		kept := ms[:0]
		for _, m := range ms {
			r.keyBuf = p.AppendKey(r.keyBuf[:0], m, subNodes)
			if r.ks.insert(r.keyBuf) {
				kept = append(kept, m)
			}
		}
		ms = kept
	}
	return ms, embeddings
}

func serialForEach(n int, _ func(int) int64, body func(w, i int)) {
	for i := 0; i < n; i++ {
		body(0, i)
	}
}

// views slices a flat arena of n-node embeddings into Match views. Each
// view is capped, so appending to one never overwrites its neighbor.
func views(flat []graph.NodeID, n int) []pattern.Match {
	if n == 0 || len(flat) == 0 {
		return nil
	}
	ms := make([]pattern.Match, len(flat)/n)
	for i := range ms {
		ms[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return ms
}

// NewCountRun returns a reusable counting session. The run owns a
// private runner — it is reusable but not safe for concurrent use; the
// census drivers hold one per worker. It enforces the same
// symmetry-breaking conditions as Matches.
func (c CN) NewCountRun() *CountRun {
	cr := &CountRun{r: new(cnRunner), stop: c.Stop}
	cr.emitFn = cr.onMatch
	return cr
}

// CountRun counts distinct matches through a persistent runner and an
// open-addressed key set over an AppendKey byte arena, with no
// map[string]struct{} (and no per-key string allocation) on the census
// hot path. When the symmetry-broken extraction already emits one
// embedding per key, the key set is skipped and the count is the number
// of embeddings emitted.
type CountRun struct {
	r        *cnRunner
	stop     func() bool
	emitFn   func(pattern.Match)
	p        *pattern.Pattern
	subNodes []int
}

func (cr *CountRun) onMatch(m pattern.Match) {
	r := cr.r
	r.keyBuf = cr.p.AppendKey(r.keyBuf[:0], m, cr.subNodes)
	r.ks.insert(r.keyBuf)
}

// CountWithin returns the number of distinct matches of p inside within
// (nil means the whole graph) under Deduplicate's identity (subNodes
// participates for COUNTSP semantics), plus the number of embeddings
// enumerated: len(Deduplicate(p, embs, subNodes)) and len(embs) for the
// embeddings embs that CN finds inside within, without allocating
// either list. Each emitted embedding stands for the |H| embeddings of
// its orbit, so the embedding count is exact without enumerating them.
func (cr *CountRun) CountWithin(g *graph.Graph, p *pattern.Pattern, within NodeSet, subNodes []int) (distinct, embeddings int) {
	r := cr.r
	r.stop = cr.stop
	if !r.build(g, p, within) {
		return 0, 0
	}
	brk := r.pc.breakFor(subNodes)
	x := &r.x
	x.reset(&r.cnSpace, brk)
	if !brk.distinct {
		cr.p, cr.subNodes = p, subNodes
		r.ks.reset()
		x.emit = cr.emitFn
	}
	x.extractAll()
	x.emit = nil
	distinct = x.emitted
	if !brk.distinct {
		distinct = r.ks.count
	}
	return distinct, x.emitted * brk.group
}

// EachWithin calls fn with every embedding CN emits inside within (nil
// means the whole graph): one per orbit of the symmetry-breaking group
// for subNodes, so a match is reported once when that group is
// Distinct, and once per orbit of its key class otherwise — fn
// deduplicates by key if it must. m is the run's assignment buffer,
// overwritten after fn returns; fn copies what it keeps. The run borrows
// a pooled runner, so a caller that lives across graph versions pins
// none of them.
func (c CN) EachWithin(g *graph.Graph, p *pattern.Pattern, within NodeSet, subNodes []int, fn func(m pattern.Match)) {
	r := getRunner(c.Stop)
	defer putRunner(r)
	if !r.build(g, p, within) {
		return
	}
	x := &r.x
	x.reset(&r.cnSpace, r.pc.breakFor(subNodes))
	x.emit = fn
	x.extractAll()
	x.emit = nil
}

var (
	runnerPool    = sync.Pool{New: func() any { return new(cnRunner) }}
	extractorPool = sync.Pool{New: func() any { return new(cnExtractor) }}
)

func getRunner(stop func() bool) *cnRunner {
	r := runnerPool.Get().(*cnRunner)
	r.stop = stop
	return r
}

func putRunner(r *cnRunner) {
	r.stop = nil
	r.x.sp, r.x.stop = nil, nil
	runnerPool.Put(r)
}

// rootBlocksPerWorker sets how many blocks of root candidates a parallel
// extraction offers each worker.
const rootBlocksPerWorker = 16

// cnCheckEvery is the epoch length of the cancellation poll: one stop()
// call per this many halted() probes keeps the hot loops branch-cheap.
const cnCheckEvery = 4096

// stopper is the epoch-counted cancellation poll of one goroutine's share
// of a run.
type stopper struct {
	stop  func() bool
	ticks uint32
	halt  bool
}

// halted reports whether the run must wind down, polling stop once per
// epoch and latching the result so subsequent probes are a field read.
func (s *stopper) halted() bool {
	if s.halt {
		return true
	}
	if s.stop == nil {
		return false
	}
	s.ticks++
	if s.ticks%cnCheckEvery != 0 {
		return false
	}
	if s.stop() {
		s.halt = true
	}
	return s.halt
}

// backEdge points from a pattern node in the search order back to an
// already-assigned positive neighbor u; j is the index of the current
// node within u's PositiveNeighbors list.
type backEdge struct{ u, j int32 }

// labelReq is one entry of a compiled neighborhood profile: the candidate
// must have at least count neighbors carrying label.
type labelReq struct {
	label graph.LabelID
	count int32
}

// compiledProfile is buildPatternProfile flattened for the hot path: the
// node's own label constraint plus per-label neighbor requirements as a
// scan-friendly slice instead of a map.
type compiledProfile struct {
	label      graph.LabelID
	hasLabel   bool
	impossible bool // a required label does not occur in the graph at all
	perLabel   []labelReq
	degree     int
}

func (cp *compiledProfile) matches(g *graph.Graph, n graph.NodeID) bool {
	if g.Degree(n) < cp.degree {
		return false
	}
	if len(cp.perLabel) == 0 {
		// No label requirement: skip the profile table, which a fresh
		// snapshot would otherwise build whole for this one probe.
		return true
	}
	np := g.NodeProfile(n)
	for _, lr := range cp.perLabel {
		if int(lr.label) >= len(np) || np[lr.label] < lr.count {
			return false
		}
	}
	return true
}

// compiledPattern caches every pattern-derived structure a matching run
// needs, so repeated runs over the same (graph, pattern) pair — one per
// focal node in a census — recompute nothing. labelsSize guards against
// a mutable graph growing its label dictionary between runs.
type compiledPattern struct {
	g          *graph.Graph
	p          *pattern.Pattern
	labelsSize int
	reqs       [][]edgeReq
	profiles   []compiledProfile
	deg        []int32 // len(PositiveNeighbors(v))
	order      []int
	level      []int // level[v] = position of v in order
	earlier    [][]backEdge
	breaks     []*compiledBreak // per subpattern identity, small MRU list
}

// compiledBreak is a pattern.SymmetryBreak laid out per search-order
// level: lower[i] lists the earlier pattern nodes whose image must be
// smaller than the image chosen at level i.
type compiledBreak struct {
	sub      []int
	lower    [][]int32
	group    int
	distinct bool
}

// breakFor returns the compiled symmetry-breaking conditions for the
// match identity subNodes (nil for COUNTP), deriving them on first use.
func (pc *compiledPattern) breakFor(subNodes []int) *compiledBreak {
	for _, b := range pc.breaks {
		if slices.Equal(b.sub, subNodes) {
			return b
		}
	}
	sb := pc.p.BreakSymmetry(subNodes, pc.order)
	b := &compiledBreak{
		sub:   append([]int(nil), subNodes...),
		lower: make([][]int32, len(pc.order)),
		group: sb.Group, distinct: sb.Distinct,
	}
	for _, c := range sb.Less { // c[0] precedes c[1] in the order
		i := pc.level[c[1]]
		b.lower[i] = append(b.lower[i], int32(c[0]))
	}
	if len(pc.breaks) >= 4 {
		pc.breaks = pc.breaks[1:]
	}
	pc.breaks = append(pc.breaks, b)
	return b
}

func compilePattern(g *graph.Graph, p *pattern.Pattern) *compiledPattern {
	n := p.NumNodes()
	pc := &compiledPattern{
		g: g, p: p, labelsSize: g.Labels().Size(),
		reqs:     pairRequirements(p),
		profiles: make([]compiledProfile, n),
		deg:      make([]int32, n),
	}
	for v := 0; v < n; v++ {
		prof := compiledProfile{}
		if l := p.Node(v).Label; l != "" {
			prof.hasLabel = true
			if id, ok := g.Labels().Lookup(l); ok {
				prof.label = id
			} else {
				prof.impossible = true
			}
		}
		for _, u := range p.PositiveNeighbors(v) {
			prof.degree++
			if l := p.Node(u).Label; l != "" {
				id, ok := g.Labels().Lookup(l)
				if !ok {
					prof.impossible = true
					continue
				}
				found := false
				for i := range prof.perLabel {
					if prof.perLabel[i].label == id {
						prof.perLabel[i].count++
						found = true
						break
					}
				}
				if !found {
					prof.perLabel = append(prof.perLabel, labelReq{id, 1})
				}
			}
		}
		pc.profiles[v] = prof
		pc.deg[v] = int32(len(p.PositiveNeighbors(v)))
	}
	pc.order = p.SearchOrder()
	pc.level = make([]int, n)
	for i, v := range pc.order {
		pc.level[v] = i
	}
	pc.earlier = make([][]backEdge, n)
	for i := 1; i < n; i++ {
		v := pc.order[i]
		for _, u := range p.PositiveNeighbors(v) {
			if pc.level[u] >= i {
				continue
			}
			for j, w := range p.PositiveNeighbors(u) {
				if w == v {
					pc.earlier[i] = append(pc.earlier[i], backEdge{int32(u), int32(j)})
					break
				}
			}
		}
	}
	return pc
}

// cnRunner is the reusable working state of serial CN matching runs: a
// candidate space, one extractor over it, and the distinct-key set. All
// buffers are grow-only: after the first run over a given graph/pattern
// size the steady state allocates nothing. A runner serves one goroutine
// at a time.
type cnRunner struct {
	cnSpace
	x cnExtractor

	roots  []graph.NodeID // live root candidates of a parallel extraction
	keyBuf []byte
	ks     keyset
}

// cnSpace is the candidate space of one run: steps 1–3 of Algorithm 1.
// It is written only while it is built and read concurrently by any
// number of extractors afterwards.
type cnSpace struct {
	stopper

	g  *graph.Graph
	p  *pattern.Pattern
	pc *compiledPattern
	n  int // graph nodes

	pats []*compiledPattern // small MRU cache of compiled patterns

	// Epoch-stamped planes indexed [v*n + node].
	member []int32 // member[v*n+node] == epoch ⇒ node ∈ C(v) and live
	pos    []int32 // index of node within cand[v], valid when member stamped
	epoch  int32

	// Direction marks for the current candidate (scalar path).
	outDir []int32
	inDir  []int32
	dirEp  int32
	nbrBuf []graph.NodeID

	cand     [][]graph.NodeID   // per-plane candidate lists (reused buffers)
	cnArenas [][]graph.NodeID   // per-plane CN entry arenas
	cnSets   [][][]graph.NodeID // cnSets[v][ci*deg+j] = CN(n, v, v_j)
	candBits [][]uint64         // per-plane candidate bitmaps (hub kernel)
	bitsUsed []bool             // which candBits planes are live this run
}

func (r *cnSpace) live(v int, n graph.NodeID) bool {
	return r.member[v*r.n+int(n)] == r.epoch
}

func (r *cnSpace) kill(v int, n graph.NodeID) {
	r.member[v*r.n+int(n)] = 0
}

func (r *cnSpace) posOf(v int, n graph.NodeID) int32 {
	return r.pos[v*r.n+int(n)]
}

// compiled returns the cached compiled form of (g, p), compiling on first
// sight. The cache is a small MRU list: a census touches a handful of
// patterns against one graph.
func (r *cnSpace) compiled(g *graph.Graph, p *pattern.Pattern) *compiledPattern {
	ls := g.Labels().Size()
	for _, pc := range r.pats {
		if pc.g == g && pc.p == p && pc.labelsSize == ls {
			return pc
		}
	}
	pc := compilePattern(g, p)
	if len(r.pats) >= 8 {
		copy(r.pats, r.pats[1:])
		r.pats = r.pats[:len(r.pats)-1]
	}
	r.pats = append(r.pats, pc)
	return pc
}

// begin sizes the planes and per-plane buffers for a run and opens a new
// epoch.
func (r *cnSpace) begin(g *graph.Graph, p *pattern.Pattern, pc *compiledPattern) {
	r.g, r.p, r.pc = g, p, pc
	r.n = g.NumNodes()
	r.ticks, r.halt = 0, false
	planes := p.NumNodes()
	if need := planes * r.n; len(r.member) < need {
		r.member = make([]int32, need)
		r.pos = make([]int32, need)
		r.epoch = 0
	}
	if len(r.outDir) < r.n {
		r.outDir = make([]int32, r.n)
		r.inDir = make([]int32, r.n)
		r.dirEp = 0
	}
	r.epoch++
	if r.epoch <= 0 { // wraparound: clear and restart
		for i := range r.member {
			r.member[i] = 0
		}
		r.epoch = 1
	}
	for len(r.cand) < planes {
		r.cand = append(r.cand, nil)
		r.cnArenas = append(r.cnArenas, nil)
		r.cnSets = append(r.cnSets, nil)
		r.candBits = append(r.candBits, nil)
		r.bitsUsed = append(r.bitsUsed, false)
	}
	for v := 0; v < planes; v++ {
		r.cand[v] = r.cand[v][:0]
		r.bitsUsed[v] = false
	}
}

// build constructs the candidate space of p in g restricted to within
// (nil means the whole graph): candidates, candidate neighbor sets, and
// pruning to fixpoint. It reports false for an empty pattern, which has
// nothing to extract.
func (r *cnSpace) build(g *graph.Graph, p *pattern.Pattern, within NodeSet) bool {
	if p == nil || p.NumNodes() == 0 {
		return false
	}
	r.begin(g, p, r.compiled(g, p))
	defer r.cleanupBits()
	r.enumerate(within)
	r.initCandidateNeighbors()
	r.prune()
	return true
}

// enumerate performs step 1 of Algorithm 1 with compiled profiles:
// candidates come from within's members (or the whole node range) and
// membership/position planes are stamped.
func (r *cnSpace) enumerate(within NodeSet) {
	g := r.g
	planes := r.p.NumNodes()
	var members []graph.NodeID
	if within != nil {
		members = within.Members()
	}
	for v := 0; v < planes; v++ {
		prof := &r.pc.profiles[v]
		if prof.impossible {
			continue
		}
		out := r.cand[v]
		if within != nil {
			for _, n := range members {
				if prof.hasLabel && g.Label(n) != prof.label {
					continue
				}
				if prof.matches(g, n) {
					out = append(out, n)
				}
			}
		} else {
			for i := 0; i < r.n; i++ {
				n := graph.NodeID(i)
				if prof.hasLabel && g.Label(n) != prof.label {
					continue
				}
				if prof.matches(g, n) {
					out = append(out, n)
				}
			}
		}
		r.cand[v] = out
		base := v * r.n
		for i, n := range out {
			r.member[base+int(n)] = r.epoch
			r.pos[base+int(n)] = int32(i)
		}
	}
}

// candBitsFor returns plane u's candidate bitmap, building it on first
// use in this run. Planes are kept all-zero between runs (cleanupBits),
// so building is pure bit-setting over the candidate list.
func (r *cnSpace) candBitsFor(u int) []uint64 {
	cb := r.candBits[u]
	if w := bitset.Words(r.n); len(cb) < w {
		cb = make([]uint64, w)
		r.candBits[u] = cb
	}
	if !r.bitsUsed[u] {
		r.bitsUsed[u] = true
		for _, n := range r.cand[u] {
			bitset.SetBit(cb, int(n))
		}
	}
	return cb
}

// cleanupBits restores the all-zero invariant of candidate bitmaps by
// clearing exactly the bits this run set.
func (r *cnSpace) cleanupBits() {
	for u := range r.bitsUsed {
		if !r.bitsUsed[u] {
			continue
		}
		cb := r.candBits[u]
		for _, n := range r.cand[u] {
			bitset.ClearBit(cb, int(n))
		}
		r.bitsUsed[u] = false
	}
}

// candNeighbors returns the distinct-neighbor iteration list of n: the CSR
// out slice for undirected graphs (one entry per half-edge, matching the
// adjacency representation), or the deduplicated out∪in union for directed
// graphs, built in the scratch buffer. Must be consumed before the next
// candNeighbors call.
func (r *cnSpace) candNeighbors(n graph.NodeID) []graph.NodeID {
	if !r.g.Directed() {
		return r.g.OutNeighbors(n)
	}
	buf := r.nbrBuf[:0]
	// outDir doubles as the dedup mark here; it is re-stamped below.
	r.dirEp++
	for _, nb := range r.g.OutNeighbors(n) {
		if r.outDir[nb] != r.dirEp {
			r.outDir[nb] = r.dirEp
			buf = append(buf, nb)
		}
	}
	for _, nb := range r.g.InNeighbors(n) {
		if r.outDir[nb] != r.dirEp {
			r.outDir[nb] = r.dirEp
			buf = append(buf, nb)
		}
	}
	r.nbrBuf = buf
	return buf
}

// markDirections stamps n's out- and in-neighbor sets so edge-direction
// requirements test in O(1).
func (r *cnSpace) markDirections(n graph.NodeID) {
	r.dirEp++
	for _, nb := range r.g.OutNeighbors(n) {
		r.outDir[nb] = r.dirEp
	}
	if r.g.Directed() {
		for _, nb := range r.g.InNeighbors(n) {
			r.inDir[nb] = r.dirEp
		}
	}
}

// reqOK tests requirement req for neighbor nb of the currently marked
// candidate.
func (r *cnSpace) reqOK(req edgeReq, nb graph.NodeID) bool {
	hasOut := r.outDir[nb] == r.dirEp
	hasIn := hasOut
	if r.g.Directed() {
		hasIn = r.inDir[nb] == r.dirEp
	}
	if req.needOut && !hasOut {
		return false
	}
	if req.needIn && !hasIn {
		return false
	}
	if req.needAny && !hasOut && !hasIn {
		return false
	}
	return true
}

// initCandidateNeighbors builds CN(n, v, v_j) for every candidate. Two
// kernels: hub candidates on undirected graphs AND their cached neighbor
// bitmap against the candidate bitmap of the pattern neighbor (every
// direction requirement is trivially satisfied there, since any incident
// neighbor has the edge in both orientations); everything else walks the
// adjacency list with epoch-stamped membership probes. The hub kernel
// collapses parallel edges into one entry; the census deduplicates
// matches by subgraph key, so counts are unaffected.
func (r *cnSpace) initCandidateNeighbors() {
	g, p := r.g, r.p
	planes := p.NumNodes()
	hubRows := g.HubRows() // nil for directed graphs
	for v := 0; v < planes; v++ {
		nbrs := p.PositiveNeighbors(v)
		deg := len(nbrs)
		nSets := len(r.cand[v]) * deg
		sets := r.cnSets[v]
		if cap(sets) < nSets {
			sets = make([][]graph.NodeID, nSets)
		} else {
			sets = sets[:nSets]
		}
		r.cnSets[v] = sets
		if deg == 0 || nSets == 0 {
			continue
		}
		// Arena sized by an upper bound on total CN entries; the hub
		// kernel only ever produces fewer (deduplicated) entries, so the
		// bound holds for both paths and sets never move once carved.
		bound := 0
		for _, n := range r.cand[v] {
			bound += g.Degree(n) * deg
		}
		arena := r.cnArenas[v]
		if cap(arena) < bound {
			arena = make([]graph.NodeID, 0, bound)
		} else {
			arena = arena[:0]
		}
		for ci, n := range r.cand[v] {
			if r.halted() {
				r.cnArenas[v] = arena
				return
			}
			var hub []uint64
			if hubRows != nil && int(n) < len(hubRows) {
				hub = hubRows[n]
			}
			if hub != nil {
				selfLoop := bitset.TestBit(hub, int(n))
				for j, u := range nbrs {
					cb := r.candBitsFor(u)
					start := len(arena)
					if selfLoop && bitset.TestBit(cb, int(n)) {
						bitset.ClearBit(cb, int(n))
						arena = bitset.AppendAnd(arena, hub, cb)
						bitset.SetBit(cb, int(n))
					} else {
						arena = bitset.AppendAnd(arena, hub, cb)
					}
					sets[ci*deg+j] = arena[start:len(arena):len(arena)]
				}
				continue
			}
			// The neighbor list must be captured per candidate because the
			// directed variant shares the scratch buffer.
			neighbors := r.candNeighbors(n)
			if !g.Directed() {
				// Every neighbor carries the edge in both orientations, so
				// any direction requirement holds and the direction stamps
				// are dead weight: probe the membership plane only.
				for j, u := range nbrs {
					mem := r.member[u*r.n : (u+1)*r.n]
					start := len(arena)
					for _, nb := range neighbors {
						if nb != n && mem[nb] == r.epoch {
							arena = append(arena, nb)
						}
					}
					sets[ci*deg+j] = arena[start:len(arena):len(arena)]
				}
				continue
			}
			r.markDirections(n)
			for j, u := range nbrs {
				req := r.pc.reqs[v][j]
				ubase := u * r.n
				start := len(arena)
				for _, nb := range neighbors {
					if nb == n {
						continue
					}
					if r.member[ubase+int(nb)] != r.epoch {
						continue
					}
					if !r.reqOK(req, nb) {
						continue
					}
					arena = append(arena, nb)
				}
				sets[ci*deg+j] = arena[start:len(arena):len(arena)]
			}
		}
		r.cnArenas[v] = arena
	}
}

// prune alternates the two pruning rules of Section III-C until fixpoint:
// drop candidates with an empty candidate neighbor set, and drop candidate
// neighbors that are no longer candidates themselves. Rule 2 entries only
// die when rule 1 killed a candidate, so the (common) round where rule 1
// finds nothing is already the fixpoint and skips the rule-2 sweep — the
// sweep touches every CN entry and dominates the cost of pruning.
func (r *cnSpace) prune() {
	p := r.p
	for !r.halted() {
		// Rule 1: every candidate needs a non-empty CN set per pattern
		// neighbor.
		killed := false
		for v := 0; v < p.NumNodes(); v++ {
			deg := int(r.pc.deg[v])
			for ci, n := range r.cand[v] {
				if r.halted() {
					return
				}
				if !r.live(v, n) {
					continue
				}
				ok := true
				for j := 0; j < deg; j++ {
					if len(r.cnSets[v][ci*deg+j]) == 0 {
						ok = false
						break
					}
				}
				if !ok {
					r.kill(v, n)
					killed = true
				}
			}
		}
		if !killed {
			return
		}
		// Rule 2: candidate neighbors must still be candidates. Filtering
		// cannot re-trigger rule 1 by itself, so no change tracking: the
		// next rule-1 pass re-examines every set length anyway.
		for v := 0; v < p.NumNodes(); v++ {
			nbrs := p.PositiveNeighbors(v)
			deg := len(nbrs)
			for ci, n := range r.cand[v] {
				if r.halted() {
					return
				}
				if !r.live(v, n) {
					continue
				}
				for j := 0; j < deg; j++ {
					u := nbrs[j]
					ubase := u * r.n
					set := r.cnSets[v][ci*deg+j]
					liveSet := set[:0]
					for _, nb := range set {
						if r.member[ubase+int(nb)] == r.epoch {
							liveSet = append(liveSet, nb)
						}
					}
					r.cnSets[v][ci*deg+j] = liveSet
				}
			}
		}
	}
}

// cnSet returns CN(asg[u], u, u's j-th pattern neighbor).
func (r *cnSpace) cnSet(asg pattern.Match, b backEdge) []graph.NodeID {
	u := int(b.u)
	deg := int(r.pc.deg[u])
	return r.cnSets[u][int(r.posOf(u, asg[u]))*deg+int(b.j)]
}

// cnExtractor is one goroutine's share of match extraction over a built
// space: Algorithm 1 lines 14-21 as a backtracking search over the
// connected-prefix order, where the possible images of the next pattern
// node are the intersection of the candidate neighbor sets of its
// already-assigned neighbors.
type cnExtractor struct {
	stopper
	sp  *cnSpace       // read-only while extracting
	brk *compiledBreak // nil: emit every automorphic image

	assignment pattern.Match
	// levels[i] holds the images level i may still try. It is filled
	// before recursing, because deeper levels re-stamp the plane.
	levels [][]graph.NodeID
	sets   [][]graph.NodeID // one level's back-edge CN sets (scratch)
	// stamp is a membership plane over graph nodes; a level claims fresh
	// epochs from stampEp, so it never needs clearing between levels.
	stamp   []int32
	stampEp int32

	emit    func(pattern.Match) // called per embedding, when non-nil
	collect bool                // append each embedding to out
	out     []graph.NodeID
	emitted int
}

// reset points x at a built space and clears its per-run state.
func (x *cnExtractor) reset(sp *cnSpace, brk *compiledBreak) {
	x.sp, x.brk = sp, brk
	x.stop, x.ticks, x.halt = sp.stop, 0, sp.halt
	planes := sp.p.NumNodes()
	if cap(x.assignment) < planes {
		x.assignment = make(pattern.Match, planes)
	}
	x.assignment = x.assignment[:planes]
	for len(x.levels) < planes {
		x.levels = append(x.levels, nil)
	}
	if len(x.stamp) < sp.n {
		x.stamp = make([]int32, sp.n)
		x.stampEp = 0
	}
	x.emit, x.collect, x.out, x.emitted = nil, false, x.out[:0], 0
}

// takeOut hands the collected arena to the caller.
func (x *cnExtractor) takeOut() []graph.NodeID {
	out := x.out
	x.out = nil
	return out
}

// epochs claims k consecutive fresh stamp epochs and returns the first.
// On int32 wraparound the plane is cleared and numbering restarts at 1,
// so a claimed epoch never matches a stale stamp.
func (x *cnExtractor) epochs(k int32) int32 {
	if x.stampEp > math.MaxInt32-k {
		clear(x.stamp)
		x.stampEp = 0
	}
	first := x.stampEp + 1
	x.stampEp += k
	return first
}

// extractAll extracts from every root candidate.
func (x *cnExtractor) extractAll() {
	for _, c := range x.sp.cand[x.sp.pc.order[0]] {
		if x.halted() {
			return
		}
		x.extractRoot(c)
	}
}

// extractRoot extracts every embedding whose first node in the search
// order maps to root.
func (x *cnExtractor) extractRoot(root graph.NodeID) {
	v := x.sp.pc.order[0]
	if !x.sp.live(v, root) {
		return
	}
	x.assignment[v] = root
	x.extractStep(1)
}

func (x *cnExtractor) extractStep(i int) {
	if x.halted() {
		return
	}
	sp := x.sp
	order := sp.pc.order
	if i == len(order) {
		if sp.p.EvalAll(sp.g, x.assignment) {
			x.emitted++
			if x.emit != nil {
				x.emit(x.assignment)
			}
			if x.collect {
				x.out = append(x.out, x.assignment...)
			}
		}
		return
	}
	v := order[i]
	for _, c := range x.filter(i) {
		x.assignment[v] = c
		x.extractStep(i + 1)
	}
}

// filter fills levels[i] with the images level i may take: the members
// of the smallest back-edge CN set that lie in every other one, are not
// already assigned, satisfy the level's symmetry-breaking conditions
// (a lower bound), and appear once (parallel edges repeat CN entries).
// One pass stamps the other sets into the plane; one pass filters the
// seed set. Entries below the bound are never stamped.
func (x *cnExtractor) filter(i int) []graph.NodeID {
	sp := x.sp
	be := sp.pc.earlier[i]
	out := x.levels[i][:0]
	if len(be) == 0 {
		return out // disconnected order; Validate prevents this
	}
	sets := x.sets[:0]
	smallest := 0
	for idx, b := range be {
		sets = append(sets, sp.cnSet(x.assignment, b))
		if len(sets[idx]) < len(sets[smallest]) {
			smallest = idx
		}
	}
	x.sets = sets
	seed := sets[smallest]
	lo := graph.NodeID(-1)
	if x.brk != nil {
		for _, a := range x.brk.lower[i] {
			lo = max(lo, x.assignment[a])
		}
	}
	stamp := x.stamp
	used := sp.pc.order[:i]
	if len(sets) == 1 {
		// Nothing to intersect: stamp the assigned images and keep the
		// unstamped seed members, stamping each as it is taken.
		ep := x.epochs(1)
		for _, u := range used {
			stamp[x.assignment[u]] = ep
		}
		for _, c := range seed {
			if c > lo && stamp[c] != ep {
				stamp[c] = ep
				out = append(out, c)
			}
		}
		x.levels[i] = out
		return out
	}
	// The first other set stamps cur; each further set promotes the
	// members stamped cur to cur+1. Seed members carrying the last epoch
	// lie in every other set; assigned images and taken members drop to 0,
	// which no epoch ever equals.
	cur := x.epochs(int32(len(sets) - 1))
	first := true
	for idx, set := range sets {
		if idx == smallest {
			continue
		}
		if first {
			for _, c := range set {
				if c > lo {
					stamp[c] = cur
				}
			}
			first = false
			continue
		}
		for _, c := range set {
			if c > lo && stamp[c] == cur {
				stamp[c] = cur + 1
			}
		}
		cur++
	}
	for _, u := range used {
		stamp[x.assignment[u]] = 0
	}
	for _, c := range seed {
		if c > lo && stamp[c] == cur {
			stamp[c] = 0
			out = append(out, c)
		}
	}
	x.levels[i] = out
	return out
}

// keyset is an epoch-stamped open-addressing set of byte keys backed by a
// single arena — the zero-allocation counterpart of map[string]struct{}
// for distinct-match counting. Keys are canonical AppendKey encodings;
// reset is O(1) via epoch bump, and all storage is reused across runs.
type keyset struct {
	slotEpoch []int32
	slotKey   []int32
	epoch     int32
	arena     []byte
	off       []int32 // key i = arena[off[i]:off[i+1]]; len = count+1
	count     int
}

func (k *keyset) reset() {
	k.count = 0
	k.arena = k.arena[:0]
	k.off = append(k.off[:0], 0)
	k.epoch++
	if k.epoch <= 0 { // wraparound: clear and restart
		for i := range k.slotEpoch {
			k.slotEpoch[i] = 0
		}
		k.epoch = 1
	}
}

func (k *keyset) key(i int32) []byte { return k.arena[k.off[i]:k.off[i+1]] }

func fnv32a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// insert adds key to the set, reporting whether it was new. The key bytes
// are copied into the arena.
func (k *keyset) insert(key []byte) bool {
	if len(k.slotEpoch) == 0 {
		k.slotEpoch = make([]int32, 64)
		k.slotKey = make([]int32, 64)
		if k.epoch == 0 {
			k.epoch = 1
		}
		if len(k.off) == 0 {
			k.off = append(k.off, 0)
		}
	}
	if (k.count+1)*4 > len(k.slotEpoch)*3 {
		k.grow()
	}
	mask := uint32(len(k.slotEpoch) - 1)
	i := fnv32a(key) & mask
	for {
		if k.slotEpoch[i] != k.epoch {
			k.slotEpoch[i] = k.epoch
			k.slotKey[i] = int32(k.count)
			k.arena = append(k.arena, key...)
			k.off = append(k.off, int32(len(k.arena)))
			k.count++
			return true
		}
		if bytes.Equal(k.key(k.slotKey[i]), key) {
			return false
		}
		i = (i + 1) & mask
	}
}

// grow doubles the slot table and rehashes the live keys.
func (k *keyset) grow() {
	old, oldKey := k.slotEpoch, k.slotKey
	n := len(old) * 2
	k.slotEpoch = make([]int32, n)
	k.slotKey = make([]int32, n)
	mask := uint32(n - 1)
	for idx, ep := range old {
		if ep != k.epoch {
			continue
		}
		ki := oldKey[idx]
		i := fnv32a(k.key(ki)) & mask
		for k.slotEpoch[i] == k.epoch {
			i = (i + 1) & mask
		}
		k.slotEpoch[i] = k.epoch
		k.slotKey[i] = ki
	}
}
