package core

import (
	"context"
	"fmt"
	"math/rand"

	"egocensus/internal/graph"
)

// This file implements the match-sampling approximation the paper lists
// as future work ("approximation techniques for even larger graphs"): the
// global match set is found once, each match is kept independently with
// probability p, and the pattern-driven counting phase runs only on the
// sample. Scaling the sampled counts by 1/p yields an unbiased estimator
// of every node's census count (each match contributes to a node's count
// independently of the others), and the expensive phase — neighborhood
// expansion around matches — shrinks by a factor of p.

// ApproxResult holds estimated census counts.
type ApproxResult struct {
	// Est[n] is the estimated census count of node n (0 for non-focal
	// nodes).
	Est []float64
	// NumMatches is the size of the full match set.
	NumMatches int
	// SampledMatches is the size of the random sample actually counted.
	SampledMatches int
	// SampleRate is the applied sampling probability.
	SampleRate float64
}

// CountApprox estimates a single-node census by match sampling with the
// pattern-driven counting machinery. sampleRate must be in (0, 1]; a rate
// of 1 reproduces the exact PT-OPT result.
func CountApprox(g *graph.Graph, spec Spec, sampleRate float64, opt Options) (*ApproxResult, error) {
	return CountApproxContext(context.Background(), g, spec, sampleRate, opt) //egolint:allow ctxflow sanctioned root: public non-Context convenience wrapper; cancellation-aware callers use the Context variant
}

// CountApproxContext is CountApprox under a context; cancellation and
// opt.Limits stop the sampled counting phase within a bounded interval.
func CountApproxContext(ctx context.Context, g *graph.Graph, spec Spec, sampleRate float64, opt Options) (*ApproxResult, error) {
	if err := spec.Validate(g); err != nil {
		return nil, err
	}
	if sampleRate <= 0 || sampleRate > 1 {
		return nil, fmt.Errorf("census: sample rate %v outside (0, 1]", sampleRate)
	}
	gd, cancel := newGuard(ctx, opt.Limits)
	defer cancel()
	matches, _, err := globalMatchesGuarded(g, spec, opt, gd)
	if err != nil {
		return nil, err
	}
	res := &ApproxResult{
		Est:        make([]float64, g.NumNodes()),
		NumMatches: len(matches),
		SampleRate: sampleRate,
	}
	if len(matches) == 0 {
		return res, nil
	}
	sample := matches
	if sampleRate < 1 {
		rng := rand.New(rand.NewSource(opt.Seed + 17))
		sample = sample[:0:0]
		for _, m := range matches {
			if rng.Float64() < sampleRate {
				sample = append(sample, m)
			}
		}
	}
	res.SampledMatches = len(sample)
	counts, err := ptCensusOnMatches(g, spec, opt, sample, false, gd)
	if err != nil {
		return nil, err
	}
	if err := gd.failure(nil, nil); err != nil {
		return nil, err
	}
	inv := 1 / sampleRate
	for n, c := range counts {
		res.Est[n] = float64(c) * inv
	}
	return res, nil
}
