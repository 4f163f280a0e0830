package plan

import (
	"fmt"

	"egocensus/internal/graph"
)

// Env carries the optimizer's inputs beyond the logical plan itself.
type Env struct {
	// Stats is the statistics snapshot of the target graph (required).
	Stats *graph.Stats
	// Forced pins the algorithm choice (the engine's \alg escape hatch);
	// empty selects cost-based optimization. Pair queries substitute
	// ND-PVOT for a forced ND-DIFF, which has no pairwise variant.
	Forced string
	// KMeansIters bounds PT-OPT clustering iterations (0 → paper's 10).
	KMeansIters int
}

// AggChoice records the optimizer's decision for one aggregate.
type AggChoice struct {
	// Algorithm is the chosen census algorithm name (core.Algorithm text).
	Algorithm string
	// Cost is the estimated cost of the choice in abstract units.
	Cost float64
	// Matches is the estimated global match-set size |M|.
	Matches float64
	// Autos is the automorphism divisor used in the |M| estimate.
	Autos int
	// Costs holds every candidate algorithm's estimate (for EXPLAIN).
	Costs map[string]float64
}

// Physical is an optimized plan: the logical tree annotated with
// statistics, selectivity, and per-aggregate algorithm choices.
type Physical struct {
	*Logical
	Stats *graph.Stats
	// Selectivity is the estimated WHERE retention rate; Focals the
	// resulting focal-node (or ordered-pair) count.
	Selectivity float64
	Focals      float64
	// NbrNodes / NbrEdges estimate the k-hop neighborhood reach.
	NbrNodes, NbrEdges float64
	// Choices has one entry per aggregate, in SELECT-list order.
	Choices []AggChoice
	// Batched marks a multi-aggregate census evaluated with one shared
	// BFS per focal node (the batched ND-PVOT driver) instead of
	// independent per-aggregate runs.
	Batched bool
	// TotalCost sums the chosen strategies' estimates.
	TotalCost float64
	// Forced echoes Env.Forced (after pairwise ND-DIFF substitution).
	Forced string

	// inputs holds each aggregate's cost inputs at the estimated focal
	// count; Reprice prices them again at the observed one.
	inputs []CostInput
}

// Algorithm returns the algorithm chosen for aggregate i at the estimated
// focal count, the choice EXPLAIN shows. Execution re-prices it at the
// observed count (Reprice).
func (p *Physical) Algorithm(i int) string { return p.Choices[i].Algorithm }

// Optimize chooses the physical strategy for a logical plan: it estimates
// WHERE selectivity and per-pattern match-set sizes from the statistics
// snapshot, prices all six algorithms, and picks the cheapest (or the
// forced one). The logical tree is annotated in place (NodeScan gains the
// snapshot, FocalSelect its selectivity estimate) so EXPLAIN renders the
// optimized tree.
func Optimize(l *Logical, env Env) (*Physical, error) {
	s := env.Stats
	if s == nil {
		return nil, fmt.Errorf("plan: optimizer needs a statistics snapshot")
	}
	p := &Physical{
		Logical:     l,
		Stats:       s,
		Selectivity: WhereSelectivity(l.Query.Where, s),
		NbrNodes:    s.NeighborhoodNodes(l.K),
		NbrEdges:    s.NeighborhoodEdges(l.K),
		Forced:      env.Forced,
	}

	n := float64(s.Nodes)
	contain := 0.0
	if n > 0 {
		contain = p.NbrNodes / n
		if contain > 1 {
			contain = 1
		}
	}
	if l.Pair {
		p.Focals = p.Selectivity * n * n
		if l.Union {
			contain = clamp01(2*contain - contain*contain)
		} else {
			contain = contain * contain
		}
		if p.Forced == NDDiff {
			p.Forced = NDPvot
		}
	} else {
		p.Focals = p.Selectivity * n
	}

	p.inputs = make([]CostInput, len(l.Aggs))
	p.Choices = make([]AggChoice, len(l.Aggs))
	for i, agg := range l.Aggs {
		matches, _, autos := EstimateMatches(agg.Pattern, agg.Subpattern, s)
		posEdges := 0
		for _, e := range agg.Pattern.Edges() {
			if !e.Negated {
				posEdges++
			}
		}
		in := CostInput{
			Matches:      matches,
			Focals:       p.Focals,
			NbrNodes:     p.NbrNodes,
			NbrEdges:     p.NbrEdges,
			Contain:      contain,
			PatternEdges: posEdges,
			Subpattern:   agg.Subpattern != "",
			KMeansIters:  env.KMeansIters,
			Stats:        s,
		}
		if l.Pair {
			// A pair touches two neighborhoods; double the per-focal BFS work.
			in.NbrNodes *= 2
			in.NbrEdges *= 2
		}
		p.inputs[i] = in
		choice := AggChoice{Matches: matches, Autos: autos, Costs: map[string]float64{}}
		for _, alg := range p.allowed() {
			choice.Costs[alg] = in.Cost(alg)
		}
		p.Choices[i] = choice
	}
	algs := make([]string, len(p.Choices))
	costs := make([]float64, len(p.Choices))
	p.Batched, p.TotalCost = p.pick(p.Focals, algs, costs)
	for i := range p.Choices {
		p.Choices[i].Algorithm, p.Choices[i].Cost = algs[i], costs[i]
	}

	// Annotate the logical tree for EXPLAIN.
	annotate(l.Root, s, p.Selectivity)
	return p, nil
}

// allowed lists the algorithms priced for this plan: pairwise censuses
// have no ND-DIFF.
func (p *Physical) allowed() []string {
	if p.Pair {
		return PairAlgorithms
	}
	return Algorithms
}

// pick prices every aggregate at focals focal units (nodes, or ordered
// pairs) and writes each one's algorithm and cost into algs and costs:
// the forced algorithm, or the cheapest allowed one. A multi-aggregate
// single-node census may instead batch: one BFS distance plane per focal
// node shared by every aggregate's containment probes (the CountMany
// driver, which is ND-PVOT-shaped), chosen when it undercuts the
// independent runs; algs then reads ND-PVOT throughout. It returns the
// batching decision and the total cost, and modifies nothing in p.
func (p *Physical) pick(focals float64, algs []string, costs []float64) (batched bool, total float64) {
	for i, in := range p.inputs {
		in.Focals = focals
		if p.Forced != "" {
			algs[i], costs[i] = p.Forced, in.Cost(p.Forced)
		} else {
			algs[i], costs[i] = in.Best(p.allowed())
		}
		total += costs[i]
	}
	if p.Pair || len(p.inputs) < 2 {
		return false, total
	}
	shared := focals * p.NbrNodes * cBFS // the shared BFS, paid once
	for _, in := range p.inputs {
		shared += in.commonCost() + focals*in.Matches*in.Contain*cContain
	}
	if p.Forced == NDPvot || (p.Forced == "" && shared < total) {
		for i := range algs {
			algs[i] = NDPvot
		}
		return true, shared
	}
	return false, total
}

// Reprice returns the algorithm each aggregate runs, and whether the
// census batches, once execution has counted the focal set: focals is
// the observed |F|, where Optimize priced the estimate p.Focals. The
// estimate can be off by the whole WHERE selectivity, and the paper's
// node- versus pattern-driven crossover (Fig 4(c)/(d)) moves with |F|.
// A forced algorithm is never re-priced, and neither is a pairwise plan:
// pattern-driven pair evaluation never enumerates pairs, so there is no
// observed count to price. p is shared by concurrent executions through
// the plan cache and is not modified.
func (p *Physical) Reprice(focals int) (algs []string, batched bool) {
	algs = make([]string, len(p.Choices))
	if p.Forced != "" || p.Pair {
		for i := range p.Choices {
			algs[i] = p.Choices[i].Algorithm
		}
		return algs, p.Batched
	}
	batched, _ = p.pick(float64(focals), algs, make([]float64, len(algs)))
	return algs, batched
}

func annotate(n Node, s *graph.Stats, sel float64) {
	switch x := n.(type) {
	case *NodeScan:
		x.Stats = s
	case *FocalSelect:
		x.Selectivity = sel
	}
	for _, c := range n.Children() {
		annotate(c, s, sel)
	}
}
