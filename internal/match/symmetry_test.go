package match

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/pattern"
)

// goroutineScheduler is a real parallel Scheduler: workers goroutines
// claim items from a shared counter, so item-to-worker assignment varies
// from run to run.
func goroutineScheduler(workers int) Scheduler {
	return Scheduler{Workers: workers, ForEach: func(n int, _ func(int) int64, body func(w, i int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					body(w, i)
				}
			}(w)
		}
		wg.Wait()
	}}
}

// randomSymmetryGraph is a small random graph, directed or not, with two
// labels, a numeric attribute "w" for predicates, and now and then a
// parallel edge.
func randomSymmetryGraph(rng *rand.Rand, directed bool) *graph.Graph {
	const n = 12
	g := graph.New(directed)
	g.AddNodes(n)
	for e := 0; e < 28; e++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			g.AddEdge(a, b)
		}
	}
	gen.AssignLabels(g, 2, rng.Int63())
	for i := 0; i < n; i++ {
		g.SetNodeAttr(graph.NodeID(i), "w", fmt.Sprint(rng.Intn(3)))
	}
	return g
}

// randomSymmetryPattern mixes labelled and unlabelled nodes, directed,
// undirected and negated edges, predicates, and (half the time) a
// COUNTSP subpattern, whose node list it returns. Half the patterns
// start from a symmetric library shape, so large groups are common.
func randomSymmetryPattern(rng *rand.Rand) (*pattern.Pattern, []int) {
	var p *pattern.Pattern
	switch rng.Intn(8) {
	case 0:
		p = pattern.Clique("clq3", 3, nil)
	case 1:
		p = pattern.Clique("clq4", 4, nil)
	case 2:
		p = pattern.Square("sqr", nil)
	case 3:
		p = pattern.Star("st4", 4, nil)
	default:
		n := 2 + rng.Intn(3)
		p = pattern.New("rnd")
		for i := 0; i < n; i++ {
			p.MustAddNode(string(rune('A'+i)), "")
		}
		for i := 1; i < n; i++ { // positive spanning tree
			p.MustAddEdge(rng.Intn(i), i, rng.Intn(3) == 0, false)
		}
	}
	n := p.NumNodes()
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			p.SetLabel(i, gen.LabelName(rng.Intn(2)))
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			p.MustAddEdge(a, b, rng.Intn(3) == 0, rng.Intn(2) == 0)
		}
	}
	switch rng.Intn(4) {
	case 0:
		a, b := rng.Intn(n), rng.Intn(n)
		p.AddPredicate(pattern.Predicate{Op: pattern.OpLe, L: pattern.NodeAttr(a, "w"), R: pattern.NodeAttr(b, "w")})
	case 1:
		p.AddPredicate(pattern.Predicate{Op: pattern.OpNe, L: pattern.NodeAttr(rng.Intn(n), "w"), R: pattern.Const("1")})
	}
	if rng.Intn(2) == 0 {
		return p, nil
	}
	var sub []int
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			sub = append(sub, i)
		}
	}
	if len(sub) == 0 {
		sub = []int{rng.Intn(n)}
	}
	if err := p.AddSubpattern("s", sub); err != nil {
		panic(err)
	}
	sorted, _ := p.Subpattern("s")
	return p, sorted
}

func keySet(p *pattern.Pattern, ms []pattern.Match, sub []int) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = p.Key(m, sub)
	}
	sort.Strings(keys)
	return keys
}

// TestSymmetryBrokenMatchesEqualBrute is the differential check of the
// symmetry-broken paths: on random graphs and patterns, CN's match set
// (serial and parallel) equals Deduplicate over brute-force embeddings,
// the counting run agrees on distinct matches and on the embedding
// count, and Embeddings still returns every automorphic image.
func TestSymmetryBrokenMatchesEqualBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	run := (CN{}).NewCountRun()
	for trial := 0; trial < 300; trial++ {
		g := randomSymmetryGraph(rng, trial%2 == 1)
		p, sub := randomSymmetryPattern(rng)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		brute := (Brute{}).Embeddings(g, p)
		want := Deduplicate(p, brute, sub)
		ctx := fmt.Sprintf("trial %d: %s sub=%v", trial, p, sub)

		got, _ := CN{}.Matches(g, p, sub, Scheduler{})
		if !reflect.DeepEqual(keySet(p, got, sub), keySet(p, want, sub)) {
			t.Fatalf("%s\nCN.Matches found %d matches, brute %d", ctx, len(got), len(want))
		}
		if !slices.IsSortedFunc(got, slices.Compare[pattern.Match]) {
			t.Fatalf("%s\nmatches not in lexicographic order", ctx)
		}
		for _, workers := range []int{2, 4} {
			par, _ := CN{}.Matches(g, p, sub, goroutineScheduler(workers))
			if len(par) != len(got) || (len(got) > 0 && !reflect.DeepEqual(par, got)) {
				t.Fatalf("%s\n%d workers: %v, serial: %v", ctx, workers, par, got)
			}
		}
		d, e := run.CountWithin(g, p, nil, sub)
		if d != len(want) || e != len(brute) {
			t.Fatalf("%s\nCountWithin = (%d, %d), want (%d, %d)", ctx, d, e, len(want), len(brute))
		}
		if n := len(CN{}.Embeddings(g, p)); n != len(brute) {
			t.Fatalf("%s\nEmbeddings = %d, want every automorphic image (%d)", ctx, n, len(brute))
		}
	}
}

// TestSymmetryFallbackKeepsDedup pins the |H| < |K| case: an edge from a
// labelled node to an unlabelled one has a trivial automorphism group,
// but when both endpoints of a graph edge carry the label, both
// orientations are valid embeddings of one subgraph. The key dedup must
// stay on, so every edge still counts once.
func TestSymmetryFallbackKeepsDedup(t *testing.T) {
	g := graph.New(false)
	g.AddNodes(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	for _, n := range []graph.NodeID{0, 1, 2} {
		g.SetLabel(n, "A")
	}
	p := pattern.SingleEdge("e", []string{"A", ""})
	if brk := p.BreakSymmetry(nil, p.SearchOrder()); brk.Distinct || brk.Group != 1 {
		t.Fatalf("BreakSymmetry = %+v, want group 1 and not Distinct", brk)
	}
	ms, embs := CN{}.Matches(g, p, nil, Scheduler{})
	if len(ms) != 3 || embs != 5 {
		t.Fatalf("Matches = %d matches from %d embeddings, want 3 from 5", len(ms), embs)
	}
	if d, _ := (CN{}).NewCountRun().CountWithin(g, p, nil, nil); d != 3 {
		t.Fatalf("CountWithin = %d, want 3", d)
	}
}

// TestStampEpochWraparound forces the extractor's stamp epoch across the
// int32 limit mid-run, with stale stamps planted at the epochs a missing
// clear would reuse.
func TestStampEpochWraparound(t *testing.T) {
	g := gen.PreferentialAttachment(200, 4, 3)
	for _, p := range []*pattern.Pattern{pattern.Clique("clq3", 3, nil), pattern.Clique("clq4", 4, nil), pattern.Star("st3", 3, nil)} {
		run := (CN{}).NewCountRun()
		want, _ := run.CountWithin(g, p, nil, nil)
		x := &run.r.x
		x.stampEp = math.MaxInt32 - 1
		for i := range x.stamp {
			x.stamp[i] = int32(1 + i%3)
		}
		got, _ := run.CountWithin(g, p, nil, nil)
		if got != want {
			t.Fatalf("%s: count across wraparound = %d, want %d", p.Name, got, want)
		}
		if x.stampEp >= math.MaxInt32-1 {
			t.Fatalf("%s: epoch did not wrap (%d)", p.Name, x.stampEp)
		}
	}
}
