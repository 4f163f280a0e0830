package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/match"
	"egocensus/internal/pattern"
)

// TestParallelDeterminism verifies that the parallel counting phase is
// bit-for-bit identical to the sequential one: for every algorithm,
// Workers=1 and Workers=8 must produce the same Result.Counts on a seeded
// preferential-attachment graph. Run under -race by the soak suite, this
// also exercises the scratch pooling and per-worker merge paths for data
// races.
func TestParallelDeterminism(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 7)
	gen.AssignLabels(g, 3, 8)
	specs := []Spec{
		{Pattern: pattern.Clique("clq3", 3, []string{"l0", "l1", "l2"}), K: 2},
		{Pattern: pattern.Chain("chain3", 3, []string{"l0", "l1", "l0"}), K: 1},
		{Pattern: pattern.CoordinatorTriad("triad"), Subpattern: "coordinator", K: 2},
	}
	for _, spec := range specs {
		for _, alg := range Algorithms {
			seq, err := Count(g, spec, alg, Options{Seed: 1, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", alg, spec.Pattern.Name, err)
			}
			par, err := Count(g, spec, alg, Options{Seed: 1, Workers: 8})
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", alg, spec.Pattern.Name, err)
			}
			if seq.NumMatches != par.NumMatches {
				t.Fatalf("%s/%s: NumMatches %d (1 worker) vs %d (8 workers)",
					alg, spec.Pattern.Name, seq.NumMatches, par.NumMatches)
			}
			for n := range seq.Counts {
				if seq.Counts[n] != par.Counts[n] {
					t.Fatalf("%s/%s: node %d = %d with 1 worker, %d with 8 workers",
						alg, spec.Pattern.Name, n, seq.Counts[n], par.Counts[n])
				}
			}
		}
	}
}

// TestMaskedMatchingEqualsExtraction pins the equivalence ND-BAS relies
// on: masked CN counting on the parent graph equals matching inside the
// extracted ego subgraph, for labeled, unlabeled, and directed patterns.
// The reference deduplicates GQL's embeddings inside g.EgoSubgraph(n, k).
func TestMaskedMatchingEqualsExtraction(t *testing.T) {
	und := gen.PreferentialAttachment(300, 4, 21)
	gen.AssignLabels(und, 3, 22)
	dir := gen.DirectedPreferentialAttachment(200, 3, 23)
	gen.AssignLabels(dir, 2, 24)
	cases := []struct {
		g    *graph.Graph
		spec Spec
	}{
		{und, Spec{Pattern: pattern.Clique("clq3", 3, []string{"l0", "l1", "l2"}), K: 2}},
		{und, Spec{Pattern: pattern.Clique("clq3u", 3, nil), K: 1}},
		{und, Spec{Pattern: pattern.Star("star4", 4, []string{"l0", "l1", "l2", "l1"}), K: 2}},
		{dir, Spec{Pattern: directedPath("dpath", []string{"l0", "", "l1"}), K: 2}},
		{dir, Spec{Pattern: directedPath("dpathu", nil), K: 1}},
	}
	for _, c := range cases {
		p := c.spec.Pattern
		want := make([]int64, c.g.NumNodes())
		for n := range want {
			sg := c.g.EgoSubgraph(graph.NodeID(n), c.spec.K)
			want[n] = int64(len(match.Deduplicate(p, match.GQL{}.Embeddings(sg.G, p), nil)))
		}
		for _, workers := range []int{1, 2} {
			res, err := Count(c.g, c.spec, NDBas, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.Name, workers, err)
			}
			for n := range want {
				if res.Counts[n] != want[n] {
					t.Fatalf("%s workers=%d: node %d = %d masked, %d extracted",
						p.Name, workers, n, res.Counts[n], want[n])
				}
			}
		}
	}
}

// directedPath builds the directed chain A->B->C with the given labels
// (nil leaves every node unlabeled).
func directedPath(name string, labels []string) *pattern.Pattern {
	p := pattern.New(name)
	for i, v := range []string{"A", "B", "C"} {
		label := ""
		if labels != nil {
			label = labels[i]
		}
		p.MustAddNode(v, label)
	}
	p.MustAddEdge(0, 1, true, false)
	p.MustAddEdge(1, 2, true, false)
	return p
}

// withStealDelay installs fn as the scheduler's steal-timing hook for the
// duration of the test. The hook is a package global, so tests using it
// must not run in parallel with each other.
func withStealDelay(t *testing.T, fn func(worker int)) {
	t.Helper()
	stealDelay = fn
	t.Cleanup(func() { stealDelay = nil })
}

// TestStealingDeterminismRandomTiming pins the scheduler's central
// contract: census tables are bit-identical regardless of which worker
// ends up running which item. Randomized sleeps and yields before every
// steal attempt perturb the chunk interleaving on each run; every
// algorithm at several worker counts must still reproduce the sequential
// counts exactly. The soak suite runs this under -race -count=3.
func TestStealingDeterminismRandomTiming(t *testing.T) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	withStealDelay(t, func(int) {
		mu.Lock()
		d := rng.Intn(60)
		mu.Unlock()
		if d < 30 {
			time.Sleep(time.Duration(d) * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	})
	g := gen.PreferentialAttachment(350, 4, 11)
	gen.AssignLabels(g, 3, 12)
	specs := []Spec{
		{Pattern: pattern.Clique("clq3", 3, []string{"l0", "l1", "l2"}), K: 2},
		{Pattern: pattern.Clique("clq3u", 3, nil), K: 1},
		{Pattern: pattern.CoordinatorTriad("triad"), Subpattern: "coordinator", K: 2},
	}
	for _, spec := range specs {
		for _, alg := range Algorithms {
			seq, err := Count(g, spec, alg, Options{Seed: 1, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", alg, spec.Pattern.Name, err)
			}
			for _, w := range []int{3, 8} {
				par, err := Count(g, spec, alg, Options{Seed: 1, Workers: w})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", alg, spec.Pattern.Name, w, err)
				}
				if par.NumMatches != seq.NumMatches {
					t.Fatalf("%s/%s workers=%d: NumMatches %d, want %d",
						alg, spec.Pattern.Name, w, par.NumMatches, seq.NumMatches)
				}
				for n := range seq.Counts {
					if seq.Counts[n] != par.Counts[n] {
						t.Fatalf("%s/%s workers=%d: node %d = %d, want %d",
							alg, spec.Pattern.Name, w, n, par.Counts[n], seq.Counts[n])
					}
				}
			}
		}
	}
}

// TestStealingCancellationMidSteal cancels the query from inside the
// first steal attempt — the scheduler must drain promptly, return the
// typed cancellation error with a partial census, and never deadlock or
// corrupt counts. Steal attempts are guaranteed: every worker scans the
// other deques at least once while draining.
func TestStealingCancellationMidSteal(t *testing.T) {
	g := gen.PreferentialAttachment(400, 5, 13)
	gen.AssignLabels(g, 3, 14)
	spec := Spec{Pattern: pattern.Clique("clq3u", 3, nil), K: 1}
	full, err := Count(g, spec, NDBas, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatalf("full census: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	withStealDelay(t, func(int) {
		once.Do(cancel)
		time.Sleep(50 * time.Microsecond)
	})
	res, err := CountContext(ctx, g, spec, NDBas, Options{Seed: 1, Workers: 8})
	if err == nil {
		t.Fatal("cancelled census returned no error")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CanceledError", err, err)
	}
	if ce.Partial == nil {
		t.Fatal("cancellation carried no partial census")
	}
	if res == nil || ce.Partial != res {
		t.Fatalf("error partial %p and returned result %p disagree", ce.Partial, res)
	}
	// ND-BAS focal slots are disjoint and written once: every slot of the
	// partial census is either untouched or the exact final count.
	for n, c := range ce.Partial.Counts {
		if c != 0 && c != full.Counts[n] {
			t.Fatalf("partial count for node %d = %d, want 0 or %d", n, c, full.Counts[n])
		}
	}
}

// TestEffectiveWorkers pins the one place worker counts are clamped.
func TestEffectiveWorkers(t *testing.T) {
	if got := EffectiveWorkers(0); got != 1 {
		t.Fatalf("EffectiveWorkers(0) = %d, want 1", got)
	}
	if got := EffectiveWorkers(-3); got != DefaultWorkers() {
		t.Fatalf("EffectiveWorkers(-3) = %d, want DefaultWorkers() = %d", got, DefaultWorkers())
	}
	if got := EffectiveWorkers(5); got != 5 {
		t.Fatalf("EffectiveWorkers(5) = %d, want 5", got)
	}
	if got := EffectiveWorkers(1 << 20); got != maxWorkers() {
		t.Fatalf("EffectiveWorkers(1<<20) = %d, want maxWorkers() = %d", got, maxWorkers())
	}
}

// TestBuildSchedule covers the scheduler's chunking directly: the chunks
// partition the descending-cost order exactly, and an item costlier than
// the chunk target is chunked alone so a hub never drags cheap neighbors
// behind it.
func TestBuildSchedule(t *testing.T) {
	costs := []int64{1, 1000, 3, 1, 900, 2, 1, 1, 5, 1, 1, 4}
	ord, chunks := buildSchedule(len(costs), 2, func(i int) int64 { return costs[i] })
	if len(ord) != len(costs) {
		t.Fatalf("order has %d items, want %d", len(ord), len(costs))
	}
	for i := 1; i < len(ord); i++ {
		if costs[ord[i-1]] < costs[ord[i]] {
			t.Fatalf("order not descending by cost at %d: %d before %d", i, costs[ord[i-1]], costs[ord[i]])
		}
	}
	seen := make([]bool, len(costs))
	last := int32(0)
	for _, c := range chunks {
		if c.start != last {
			t.Fatalf("chunk starts at %d, want %d (gap or overlap)", c.start, last)
		}
		last = c.end
		for idx := c.start; idx < c.end; idx++ {
			if seen[ord[idx]] {
				t.Fatalf("item %d scheduled twice", ord[idx])
			}
			seen[ord[idx]] = true
		}
	}
	if last != int32(len(costs)) {
		t.Fatalf("chunks end at %d, want %d", last, len(costs))
	}
	// The two hubs dominate the total, so each must sit in its own chunk
	// (they are the two costliest items, i.e. order positions 0 and 1).
	if chunks[0] != (chunk{0, 1}) || chunks[1] != (chunk{1, 2}) {
		t.Fatalf("hubs not isolated: chunks = %+v", chunks[:2])
	}
}

// TestParallelForHelpers covers the two pool entry points directly, with
// uniform (nil) and skewed cost estimates: full coverage of the index
// space, worker clamping, merge equivalence, and a guard stop after which
// each worker starts at most the one item it had already checked in.
func TestParallelForHelpers(t *testing.T) {
	skew := func(i int) int64 { return int64(1 + (i%7)*(i%7)*50) }
	for _, workers := range []int{1, 3, 16} {
		for _, cost := range []func(int) int64{nil, skew} {
			name := fmt.Sprintf("workers=%d cost=%v", workers, cost != nil)
			hits := make([]int64, 100)
			parallelFor(nil, workers, len(hits), cost, func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("%s: worker index %d out of range", name, w)
				}
				hits[i]++
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("parallelFor(%s): index %d visited %d times", name, i, h)
				}
			}
			dst := make([]int64, 10)
			parallelMerge(nil, workers, 40, cost, dst, func(w int, counts []int64, i int) {
				counts[i%10] += int64(i)
			})
			for i, v := range dst {
				want := int64(i + (i + 10) + (i + 20) + (i + 30))
				if v != want {
					t.Fatalf("parallelMerge(%s): slot %d = %d, want %d", name, i, v, want)
				}
			}

			// A guard stopped from inside the body. The pool checks the
			// guard before each item, so a body can begin after the stop
			// only if its worker checked just before it: at most one per
			// worker. Bodies that began before the stop are not bounded (the
			// stopping worker may be descheduled between its count and
			// gd.stop), so only the late ones are counted.
			for _, merge := range []bool{false, true} {
				gd := &guard{}
				var ran, late atomic.Int64
				body := func(int) {
					if gd.stopped() {
						late.Add(1)
					}
					if ran.Add(1) == 5 {
						gd.stop(context.Canceled)
					}
				}
				if merge {
					parallelMerge(gd, workers, 1000, cost, make([]int64, 1), func(_ int, _ []int64, i int) { body(i) })
				} else {
					parallelFor(gd, workers, 1000, cost, func(_, i int) { body(i) })
				}
				if got := ran.Load(); got < 5 {
					t.Fatalf("%s merge=%v: %d items ran, want the stop at the 5th", name, merge, got)
				}
				if got := late.Load(); got > int64(workers) {
					t.Fatalf("%s merge=%v: %d items began after the stop, want at most %d (one per worker)", name, merge, got, workers)
				}
			}
		}
	}
}
