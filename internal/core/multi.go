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
// Count(..., NDPvot, ...) per spec: both are countNDPvot.
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
	results, err := countNDPvot(g, specs, focalUnits(g, specs[0]), opt, gd)
	if err != nil {
		return nil, err
	}
	return results, nil
}

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
