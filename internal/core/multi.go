package core

import (
	"context"
	"fmt"

	"egocensus/internal/graph"
)

// CountMany evaluates several censuses with the same radius k and focal
// set in one pass: the dominant cost of node-driven evaluation — one
// k-hop BFS per focal node — is paid once and shared by every pattern
// (each with its own pivot index), instead of once per pattern. Useful for
// workloads that ask several questions of the same neighborhoods, e.g. the
// link-prediction measures or the clustering-coefficient reduction.
//
// Results are returned in spec order and are identical to running
// Count(..., NDPvot, ...) per spec.
func CountMany(g *graph.Graph, specs []Spec, opt Options) ([]*Result, error) {
	return CountManyContext(context.Background(), g, specs, opt) //egolint:allow ctxflow sanctioned root: public non-Context convenience wrapper; cancellation-aware callers use the Context variant
}

// CountManyContext is CountMany under a context: cancellation and
// opt.Limits stop the shared pass within a bounded interval; the typed
// error carries the first spec's partial census as a progress indicator.
func CountManyContext(ctx context.Context, g *graph.Graph, specs []Spec, opt Options) ([]*Result, error) {
	gd, cancel := newGuard(ctx, opt.Limits)
	defer cancel()
	return countManyGuarded(g, specs, opt, gd)
}

//egolint:deterministic census drivers must be bit-identical across runs, algorithms, and worker counts
func countManyGuarded(g *graph.Graph, specs []Spec, opt Options, gd *guard) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	k := specs[0].K
	for i, spec := range specs {
		if err := spec.Validate(g); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		if spec.K != k {
			return nil, fmt.Errorf("census: CountMany requires a uniform radius (spec %d has k=%d, want %d)", i, spec.K, k)
		}
		if !sameFocal(specs[0].Focal, spec.Focal) {
			return nil, fmt.Errorf("census: CountMany requires a uniform focal set")
		}
	}

	// Per-spec pivot machinery, as in countNDPvot.
	type pvState struct {
		matches []patternMatch
		index   [][]int32
		maxV    int
		distant [][]int
	}
	states := make([]*pvState, len(specs))
	results := make([]*Result, len(specs))
	for i, spec := range specs {
		matches, embs, err := globalMatchesGuarded(g, spec, opt, gd)
		if err != nil {
			return nil, err
		}
		results[i] = &Result{Counts: make([]int64, g.NumNodes()), NumMatches: len(matches), Embeddings: embs}
		if len(matches) == 0 {
			continue
		}
		anchorIdx := spec.anchorNodes()
		dist := spec.Pattern.Distances()
		pivot, maxV := -1, int(^uint(0)>>1)
		for _, x := range anchorIdx {
			ecc := 0
			for _, y := range anchorIdx {
				if dist[x][y] > ecc {
					ecc = dist[x][y]
				}
			}
			if ecc < maxV {
				pivot, maxV = x, ecc
			}
		}
		distant := make([][]int, maxV+2)
		for _, u := range anchorIdx {
			for j := 1; j <= maxV; j++ {
				if dist[pivot][u] >= j {
					distant[j] = append(distant[j], u)
				}
			}
		}
		st := &pvState{maxV: maxV, distant: distant, index: buildPMI(g.NumNodes(), matches, pivot)}
		st.matches = make([]patternMatch, len(matches))
		for mi, m := range matches {
			st.matches[mi] = m
		}
		states[i] = st
	}

	prepare(g)
	focal := specs[0].focalList(g)
	gd.setFocalTotal(len(focal))
	focalCost := func(i int) int64 { return 1 + int64(g.Degree(focal[i])) }
	parallelForCostAff(gd, opt.workers(), len(focal), focalCost, opt.focalAffinity(focal), func(fi int) {
		n := focal[fi]
		s := graph.AcquireScratch(g.NumNodes())
		defer s.Release()
		reach := g.KHop(n, k, s) // the shared traversal
		tk := ticker{gd: gd}
		for i, st := range states {
			if st == nil {
				continue
			}
			var count int64
			for _, nPrime := range reach.Nodes {
				if tk.tick() != nil {
					return
				}
				bucket := st.index[nPrime]
				if len(bucket) == 0 {
					continue
				}
				d := int(reach.Dist(nPrime))
				if d+st.maxV <= k {
					count += int64(len(bucket))
					continue
				}
				checkIdx := k - d + 1
				if checkIdx < 1 {
					checkIdx = 1
				}
				if checkIdx >= len(st.distant) {
					checkIdx = len(st.distant) - 1
				}
				toCheck := st.distant[checkIdx]
				for _, mi := range bucket {
					m := st.matches[mi]
					inside := true
					for _, u := range toCheck {
						if !reach.Contains(m[u]) {
							inside = false
							break
						}
					}
					if inside {
						count++
					}
				}
			}
			results[i].Counts[n] = count
		}
	})
	if len(results) > 0 {
		if err := gd.failure(results[0], nil); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// patternMatch aliases the match representation for the state table.
type patternMatch = []graph.NodeID

func sameFocal(a, b []graph.NodeID) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
