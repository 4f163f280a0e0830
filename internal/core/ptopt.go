package core

import (
	"math/rand"

	"egocensus/internal/centers"
	"egocensus/internal/graph"
	"egocensus/internal/kmeans"
	"egocensus/internal/pattern"
)

// countPTDriven is the optimized pattern-driven algorithm of Section IV-B
// (Algorithm 4 plus match clustering): matches are clustered by their
// center-distance feature vectors, and each cluster is processed with one
// simultaneous traversal that computes, for every node near the cluster,
// its distance to every anchor node — initialized with pattern-distance
// shortcuts and center-based triangle-inequality bounds, and driven in
// best-first order by an O(1) array bucket queue (or random order for the
// PT-RND ablation).
//
//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countPTDriven(g *graph.Graph, spec Spec, opt Options, randomOrder bool, gd *guard) (*Result, error) {
	matches, embs, err := globalMatchesGuarded(g, spec, opt, gd)
	if err != nil {
		return nil, err
	}
	counts, err := ptCensusOnMatches(g, spec, opt, matches, randomOrder, gd)
	res := &Result{Counts: counts, NumMatches: len(matches), Embeddings: embs}
	if err != nil {
		return nil, err
	}
	return res, gd.failure(res, nil)
}

// ptCensusOnMatches runs the pattern-driven counting phase over an
// explicit match list (used by the exact algorithms and by the sampling
// approximation). Clusters are processed in parallel when Options.Workers
// exceeds one.
func ptCensusOnMatches(g *graph.Graph, spec Spec, opt Options, matches []pattern.Match, randomOrder bool, gd *guard) ([]int64, error) {
	counts := make([]int64, g.NumNodes())
	gd.chargeMem(int64(g.NumNodes()) * 8)
	if len(matches) == 0 || gd.stopped() {
		return counts, nil
	}
	anchorIdx := spec.anchorNodes()
	focal := spec.focalSet(g)
	pmdCenters, clusterCenters := resolveCenters(g, opt)
	clusters := clusterMatches(g, spec, opt, matches, anchorIdx, clusterCenters, gd)

	// Pattern distances for the shortcut initialization.
	pdist := spec.Pattern.Distances()
	prepare(g)

	// Each worker owns a lazily created traversal with a private rng; the
	// per-worker count vectors (cluster membership passes may touch any
	// node) are summed by parallelMerge, so any worker count yields the
	// same census. Clusters are the focal units for cancellation and
	// progress; the traversal ticks the guard inside its expansion loop so
	// large clusters stay responsive.
	gd.setFocalTotal(len(clusters))
	trs := make([]*traversal, opt.workers())
	// Cluster cost for the work-stealing schedule: one simultaneous
	// traversal per cluster, driven by the number of member matches.
	clusterCost := func(ci int) int64 { return int64(len(clusters[ci])) }
	parallelMerge(gd, opt.workers(), len(clusters), clusterCost, counts, func(w int, dst []int64, ci int) {
		tr := trs[w]
		if tr == nil {
			tr = &traversal{
				g:           g,
				k:           spec.K,
				pmdCenters:  pmdCenters,
				randomOrder: randomOrder,
				noShortcuts: opt.DisableShortcuts,
				rng:         rand.New(rand.NewSource(opt.Seed + 1 + int64(w))),
				gd:          gd,
			}
			trs[w] = tr
		}
		tr.processCluster(matches, clusters[ci], anchorIdx, pdist, focal, dst)
	})
	return counts, nil
}

// resolveCenters builds the PMD and clustering center indexes per the
// options (shared by default).
func resolveCenters(g *graph.Graph, opt Options) (pmd, cluster *centers.Index) {
	pmd = opt.PMDCenters
	cluster = opt.ClusterCenters
	if pmd == nil && cluster == nil {
		shared := centers.Build(g, opt.numCenters(), opt.CenterStrategy, opt.Seed)
		return shared, shared
	}
	if pmd == nil {
		pmd = centers.Build(g, opt.numCenters(), opt.CenterStrategy, opt.Seed)
	}
	if cluster == nil {
		cluster = pmd
	}
	return pmd, cluster
}

// clusterMatches groups match indices per Section IV-B5: K-means over
// F(M) = <d(c_i, m_j)> feature vectors (OPT-CLUST), uniform random
// assignment (RND-CLUST), or one singleton cluster per match (NO-CLUST).
// The paper's default cluster count is |M|/4.
func clusterMatches(g *graph.Graph, spec Spec, opt Options, matches []pattern.Match, anchorIdx []int, clusterCenters *centers.Index, gd *guard) [][]int {
	n := len(matches)
	if opt.NoClustering || n == 1 || (clusterCenters.Len() == 0 && !opt.RandomClustering) {
		out := make([][]int, n)
		for i := range out {
			out[i] = []int{i}
		}
		return out
	}
	k := opt.Clusters
	if k <= 0 {
		k = n / 4
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	var assign []int
	if opt.RandomClustering {
		assign = kmeans.RandomAssign(n, k, opt.Seed+2)
	} else {
		// Feature extraction and the K-means sweeps both scale with
		// |M|·k·|centers| — the dominant pre-counting cost — so each polls
		// the guard; on a stop the counting loop below sees the flag and
		// the caller abandons before processing any cluster.
		feats := make([][]float64, n)
		nc := clusterCenters.Len()
		gd.chargeMem(int64(n) * int64(nc*len(anchorIdx)) * 8)
		tk := ticker{gd: gd}
		for i, m := range matches {
			if tk.tick() != nil {
				break
			}
			f := make([]float64, 0, nc*len(anchorIdx))
			for c := 0; c < nc; c++ {
				for _, idx := range anchorIdx {
					d := clusterCenters.FromCenter(c, m[idx])
					if d < 0 {
						d = int32(g.NumNodes()) // unreachable sentinel
					}
					f = append(f, float64(d))
				}
			}
			feats[i] = f
		}
		if gd.stopped() {
			out := make([][]int, n)
			for i := range out {
				out[i] = []int{i}
			}
			return out
		}
		assign = kmeans.ClusterStop(feats, k, opt.kmeansIters(), opt.Seed+3, gd.stopFunc()).Assign
	}
	groups := make(map[int][]int)
	for i, c := range assign {
		groups[c] = append(groups[c], i)
	}
	out := make([][]int, 0, len(groups))
	for c := 0; c < k; c++ {
		if g, ok := groups[c]; ok {
			out = append(out, g)
		}
	}
	return out
}

// traversal carries the per-run state of the simultaneous expansion.
type traversal struct {
	g           *graph.Graph
	k           int
	pmdCenters  *centers.Index
	randomOrder bool
	noShortcuts bool
	rng         *rand.Rand
	gd          *guard
}

// processCluster runs one simultaneous traversal around all matches of the
// cluster and increments counts for every focal node whose k-hop
// neighborhood contains some match's full anchor set.
func (tr *traversal) processCluster(matches []pattern.Match, cluster []int, anchorIdx []int, pdist [][]int, focal []bool, counts []int64) {
	pmd, anchorPos := tr.computePMD(matches, cluster, anchorIdx, pdist)
	k := tr.k
	// Membership pass: a node gets one count per match whose anchors are
	// all within k.
	tk := ticker{gd: tr.gd}
	for n, v := range pmd {
		if tk.tick() != nil {
			return
		}
		if focal != nil && !focal[n] {
			continue
		}
		for _, mi := range cluster {
			m := matches[mi]
			inside := true
			for _, idx := range anchorIdx {
				if v[anchorPos[m[idx]]] > int32(k) {
					inside = false
					break
				}
			}
			if inside {
				counts[n]++
			}
		}
	}
}

// computePMD runs the simultaneous best-first (or random-order) traversal
// for one cluster of matches and returns, for every touched node, the
// vector of capped distances to each distinct anchor node of the cluster.
func (tr *traversal) computePMD(matches []pattern.Match, cluster []int, anchorIdx []int, pdist [][]int) (map[graph.NodeID][]int32, map[graph.NodeID]int) {
	g, k := tr.g, tr.k
	cap16 := int32(k + 1)

	// Collect the distinct anchor nodes of the cluster.
	anchorPos := make(map[graph.NodeID]int)
	var anchors []graph.NodeID
	for _, mi := range cluster {
		for _, idx := range anchorIdx {
			n := matches[mi][idx]
			if _, ok := anchorPos[n]; !ok {
				anchorPos[n] = len(anchors)
				anchors = append(anchors, n)
			}
		}
	}
	na := len(anchors)

	// Precompute d(anchor_i, c) for the center-based bounds.
	nc := tr.pmdCenters.Len()
	var anchorCenter [][]int32
	if nc > 0 {
		anchorCenter = make([][]int32, na)
		for i, a := range anchors {
			row := make([]int32, nc)
			for c := 0; c < nc; c++ {
				d := tr.pmdCenters.FromCenter(c, a)
				if d < 0 || d > cap16 {
					d = cap16
				}
				row[c] = d
			}
			anchorCenter[i] = row
		}
	}

	// pmd[n][i] = capped upper bound on d(n, anchors[i]). The map is the
	// traversal's dominant allocation, so every vector is charged against
	// the memory budget as it is created.
	pmd := make(map[graph.NodeID][]int32, 256)
	vecBytes := int64(na)*4 + 48 // vector payload + map entry overhead
	newVec := func() []int32 {
		tr.gd.chargeMem(vecBytes)
		v := make([]int32, na)
		for i := range v {
			v[i] = cap16
		}
		return v
	}

	// Distance shortcuts: within each match, pattern distances bound the
	// image distances (Section IV-B2). With shortcuts disabled (ablation)
	// every anchor still seeds its own zero distance.
	for _, mi := range cluster {
		m := matches[mi]
		for _, xi := range anchorIdx {
			a := m[xi]
			va, ok := pmd[a]
			if !ok {
				va = newVec()
				pmd[a] = va
			}
			if tr.noShortcuts {
				va[anchorPos[a]] = 0
				continue
			}
			for _, yi := range anchorIdx {
				b := m[yi]
				d := int32(pdist[xi][yi])
				if d > cap16 {
					d = cap16
				}
				if pos := anchorPos[b]; d < va[pos] {
					va[pos] = d
				}
			}
		}
	}

	// Center-based seeding: centers enter the queue with exact distances,
	// so they are never reinserted (Section IV-B4).
	if nc > 0 {
		for c := 0; c < nc; c++ {
			cn := tr.pmdCenters.Centers[c]
			vc, ok := pmd[cn]
			if !ok {
				vc = newVec()
				pmd[cn] = vc
			}
			for i := range anchors {
				d := anchorCenter[i][c]
				if d < vc[i] {
					vc[i] = d
				}
			}
		}
	}

	score := func(v []int32) int {
		s := 0
		for _, d := range v {
			s += int(d)
		}
		return s
	}

	q := newQueue(tr.randomOrder, (k+1)*na, tr.rng)
	for n, v := range pmd {
		q.push(n, score(v))
	}

	tk := ticker{gd: tr.gd}
	for {
		if tk.tick() != nil {
			return pmd, anchorPos
		}
		n, ok := q.pop()
		if !ok {
			break
		}
		vn := pmd[n]
		// Expand only when the node can still improve something: some
		// anchor distance < k means neighbors may be within k.
		expand := false
		for _, d := range vn {
			if d < int32(k) {
				expand = true
				break
			}
		}
		if !expand {
			continue
		}
		for _, h := range g.Out(n) {
			tr.relax(n, h.To, vn, pmd, anchorCenter, nc, cap16, newVec, score, q)
		}
		if g.Directed() {
			for _, h := range g.In(n) {
				tr.relax(n, h.To, vn, pmd, anchorCenter, nc, cap16, newVec, score, q)
			}
		}
	}

	return pmd, anchorPos
}

// relax propagates distance bounds from n to its neighbor nb, applying the
// center-based triangle-inequality bound on first touch, and requeues nb
// when any bound improved.
func (tr *traversal) relax(n, nb graph.NodeID, vn []int32, pmd map[graph.NodeID][]int32, anchorCenter [][]int32, nc int, cap16 int32, newVec func() []int32, score func([]int32) int, q queue) {
	if nb == n {
		return
	}
	vb, seen := pmd[nb]
	improved := false
	if !seen {
		vb = newVec()
		// First touch: PMD_m[n'] = min(PMD_m[n]+1, min_c d(m,c)+d(c,n')).
		for i := range vb {
			best := vn[i] + 1
			if best > cap16 {
				best = cap16
			}
			for c := 0; c < nc; c++ {
				dcn := tr.pmdCenters.FromCenter(c, nb)
				if dcn < 0 {
					continue
				}
				if b := anchorCenter[i][c] + dcn; b < best {
					best = b
				}
			}
			if best < cap16 {
				improved = true
			}
			vb[i] = best
		}
		pmd[nb] = vb
		if improved {
			q.push(nb, score(vb))
		}
		return
	}
	for i := range vb {
		if d := vn[i] + 1; d < vb[i] {
			vb[i] = d
			improved = true
		}
	}
	if improved {
		q.push(nb, score(vb))
	}
}

// queue abstracts the traversal ordering: an array bucket priority queue
// for best-first order (O(1) push/pop because scores are bounded by
// (k+1)|V_P|, Section IV-B3) or a uniform random queue for PT-RND.
type queue interface {
	push(n graph.NodeID, score int)
	pop() (graph.NodeID, bool)
}

func newQueue(random bool, maxScore int, rng *rand.Rand) queue {
	if random {
		return &randomQueue{rng: rng, in: map[graph.NodeID]bool{}}
	}
	return &bucketQueue{buckets: make([][]graph.NodeID, maxScore+1), latest: map[graph.NodeID]int{}}
}

// bucketQueue stores nodes in an array indexed by score; stale entries
// (score no longer current) are skipped lazily at pop time.
type bucketQueue struct {
	buckets [][]graph.NodeID
	latest  map[graph.NodeID]int
	low     int
	size    int
}

func (q *bucketQueue) push(n graph.NodeID, score int) {
	if score < 0 {
		score = 0
	}
	if score >= len(q.buckets) {
		score = len(q.buckets) - 1
	}
	q.latest[n] = score
	q.buckets[score] = append(q.buckets[score], n)
	q.size++
	if score < q.low {
		q.low = score
	}
}

func (q *bucketQueue) pop() (graph.NodeID, bool) {
	for q.size > 0 {
		for q.low < len(q.buckets) && len(q.buckets[q.low]) == 0 {
			q.low++
		}
		if q.low >= len(q.buckets) {
			q.size = 0
			return 0, false
		}
		b := q.buckets[q.low]
		n := b[len(b)-1]
		q.buckets[q.low] = b[:len(b)-1]
		q.size--
		if cur, ok := q.latest[n]; ok && cur == q.low {
			delete(q.latest, n)
			return n, true
		}
		// stale entry: the node was reinserted with a better score
	}
	return 0, false
}

// randomQueue pops a uniformly random pending node (the PT-RND ablation).
type randomQueue struct {
	items []graph.NodeID
	in    map[graph.NodeID]bool
	rng   *rand.Rand
}

func (q *randomQueue) push(n graph.NodeID, score int) {
	if q.in[n] {
		return
	}
	q.in[n] = true
	q.items = append(q.items, n)
}

func (q *randomQueue) pop() (graph.NodeID, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	i := q.rng.Intn(len(q.items))
	n := q.items[i]
	q.items[i] = q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	delete(q.in, n)
	return n, true
}
