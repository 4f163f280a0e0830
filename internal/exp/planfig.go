package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/pattern"
)

// cutFactor stops a forced driver once it has run this many times longer
// than the fastest driver of its case, so PT-RND and PT-OPT (two orders
// of magnitude slower than ND-PVOT on unlabelled graphs) cannot stretch
// the sweep.
const cutFactor = 10

// FigPlan audits the planner: for each case of a sweep over graph size ×
// labelling × k × pattern × focal fraction it prints the estimated and
// actual |M| and |F| with their q-errors, every driver's forced runtime
// and the fastest one, and two choices with their regret (time over the
// fastest): the driver the engine executes (the plan re-priced at the
// observed |F|) and the static one EXPLAIN shows (priced at the
// estimated |F|). A driver still running at cutFactor × the fastest so
// far is cancelled and printed as ">10x". Summary rows give both
// regrets' median, 90th percentile, maximum and geometric mean, and how
// many cases re-pricing moved to a faster or a slower driver. Unit scale sweeps
// n = 500 only (seconds); larger scales add n = 2000 and 8000 (minutes:
// the 2-path census at n=8000 materializes a million matches per
// driver), the sweep the cost constants were fit on.
func FigPlan(cfg Config, progress io.Writer) ([]Measurement, error) {
	sizes := []int{500, 2000, 8000}
	if cfg.Scale == Unit {
		sizes = sizes[:1]
	}
	return planSweep(context.Background(), sizes, []int{1, 2}, cfg.Seed, progress) //egolint:allow ctxflow sanctioned root: Figure.Run takes no context; the sweep cancels slow drivers through per-run deadlines
}

// planPatterns are the sweep's census patterns: an edge, a 2-path, a
// triangle, and the paper's labelled clq3 (which has no match on an
// unlabelled graph).
func planPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.SingleEdge("edge", nil),
		pattern.Chain("path2", 3, nil),
		pattern.Clique("tri", 3, nil),
		clq3(),
	}
}

// planFocal is one focal selection of the sweep. Two bucket attributes
// dealt by degree rank select 2 % and 20 % of the nodes with an equality
// the planner cannot see through (it guesses 10 % for both), and the
// third selects every node.
type planFocal struct {
	name  string
	where string
	attr  string
	count int // buckets of attr
}

var planFocals = []planFocal{
	{"2%", " WHERE b50 = 'x0'", "b50", 50},
	{"20%", " WHERE b5 = 'x0'", "b5", 5},
	{"100%", "", "", 0},
}

// planGraph builds an n-node preferential-attachment graph with the
// sweep's focal attributes and, when labelled, 4 labels dealt by degree
// rank (rank mod 4), so every label gets the same share of hubs. Each
// bucket attribute is dealt the same way after a seeded shuffle within
// every run of consecutive ranks. It returns each attribute's "x0"
// bucket, ascending.
func planGraph(n int, labelled bool, seed int64) (*graph.Graph, map[string][]graph.NodeID) {
	g := gen.PreferentialAttachment(n, edgeFactor, seed)
	byDegree := make([]int, n)
	for i := range byDegree {
		byDegree[i] = i
	}
	sort.SliceStable(byDegree, func(i, j int) bool {
		return g.Degree(graph.NodeID(byDegree[i])) > g.Degree(graph.NodeID(byDegree[j]))
	})
	if labelled {
		for rank, v := range byDegree {
			g.SetLabel(graph.NodeID(v), gen.LabelName(rank%numLabels))
		}
	}
	rng := rand.New(rand.NewSource(seed + 7))
	focal := map[string][]graph.NodeID{}
	for _, f := range planFocals {
		if f.attr == "" {
			continue
		}
		for lo := 0; lo < n; lo += f.count {
			order := rng.Perm(f.count)
			for j := 0; j < f.count && lo+j < n; j++ {
				v := graph.NodeID(byDegree[lo+j])
				g.SetNodeAttr(v, f.attr, "x"+strconv.Itoa(order[j]))
				if order[j] == 0 {
					focal[f.attr] = append(focal[f.attr], v)
				}
			}
		}
		sort.Slice(focal[f.attr], func(i, j int) bool { return focal[f.attr][i] < focal[f.attr][j] })
	}
	return g, focal
}

// planSweep runs the planner audit over the given sizes and radii.
func planSweep(ctx context.Context, sizes, ks []int, seed int64, progress io.Writer) ([]Measurement, error) {
	opt := core.Options{Workers: core.EffectiveWorkers(core.DefaultWorkers()), Seed: seed}
	var out []Measurement
	var regrets, static []float64
	faster, slower := 0, 0
	for _, n := range sizes {
		for _, labels := range []int{0, numLabels} {
			g, focalSets := planGraph(n, labels > 0, seed)
			eng := core.NewEngine(g)
			eng.Opt = opt
			for _, p := range planPatterns() {
				if err := eng.DefinePattern(p); err != nil {
					return nil, err
				}
			}
			for _, k := range ks {
				for _, p := range planPatterns() {
					for _, f := range planFocals {
						m, regret, staticRegret, err := planCase(ctx, eng, g, p, k, f, focalSets[f.attr], opt)
						if err != nil {
							return nil, err
						}
						m.Labels = []KV{
							{"n", fmt.Sprint(n)}, {"labels", fmt.Sprint(labels)},
							{"k", fmt.Sprint(k)}, {"pattern", p.Name}, {"focal", f.name},
						}
						out = append(out, m)
						regrets = append(regrets, regret)
						static = append(static, staticRegret)
						switch {
						case regret < staticRegret:
							faster++
						case regret > staticRegret:
							slower++
						}
						progressf(progress, "plan %s: regret %.2f (static %.2f)\n", m.Label(), regret, staticRegret)
					}
				}
			}
		}
	}
	sort.Float64s(regrets)
	sort.Float64s(static)
	for _, q := range []struct {
		name string
		at   float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"max", 1}} {
		out = append(out, Measurement{
			Labels: []KV{{"n", q.name}},
			Values: []KV{
				{"regret", fmt.Sprintf("%.2f", quantile(regrets, q.at))},
				{"static_regret", fmt.Sprintf("%.2f", quantile(static, q.at))},
			},
		})
	}
	out = append(out, Measurement{
		Labels: []KV{{"n", "gmean"}},
		Values: []KV{
			{"regret", fmt.Sprintf("%.3f", geomean(regrets))},
			{"static_regret", fmt.Sprintf("%.3f", geomean(static))},
		},
	})
	// Cases whose executed driver differs from the static one, split by
	// which of the two ran faster.
	out = append(out, Measurement{
		Labels: []KV{{"n", "repriced"}},
		Values: []KV{{"regret", fmt.Sprintf("%d faster", faster)}, {"static_regret", fmt.Sprintf("%d slower", slower)}},
	})
	return out, nil
}

// quantile returns the nearest-rank q-quantile of ascending xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// qError is the symmetric ratio max(est/act, act/est), with both sides
// floored at 1 so an empty set does not divide by zero.
func qError(est, act float64) float64 {
	est, act = math.Max(est, 1), math.Max(act, 1)
	return math.Max(est/act, act/est)
}

// planCase plans one census, times every driver forced on its actual
// focal set, and returns the row with the regret of the executed and of
// the static driver (cutFactor when that driver was cut).
func planCase(ctx context.Context, eng *core.Engine, g *graph.Graph, p *pattern.Pattern, k int, f planFocal, focal []graph.NodeID, opt core.Options) (m Measurement, regret, staticRegret float64, err error) {
	text := fmt.Sprintf("SELECT ID, COUNTP(%s, SUBGRAPH(ID, %d)) FROM nodes%s", p.Name, k, f.where)
	script, err := lang.ParseWith(text, eng.Patterns())
	if err != nil {
		return Measurement{}, 0, 0, err
	}
	phys, err := eng.Plan(script.Queries()[0])
	if err != nil {
		return Measurement{}, 0, 0, err
	}
	actualF := g.NumNodes()
	if f.attr != "" {
		actualF = len(focal)
	}
	algs, _ := phys.Reprice(actualF)
	chosen, static := core.Algorithm(algs[0]), core.Algorithm(phys.Algorithm(0))

	// Run the drivers cheapest-estimate first, so the fastest is usually
	// known before the slow ones start and they get cut early.
	order := append([]core.Algorithm(nil), core.Algorithms...)
	costs := phys.Choices[0].Costs
	sort.SliceStable(order, func(i, j int) bool { return costs[string(order[i])] < costs[string(order[j])] })
	spec := core.Spec{Pattern: p, K: k, Focal: focal}
	times := map[core.Algorithm]time.Duration{}
	var best time.Duration
	// ND-BAS never materializes the global match set; |M| comes from the
	// drivers that do, and stays unknown when all of them were cut.
	bestAlg, actualM := core.Algorithm(""), -1
	for _, alg := range order {
		d, res, err := timeDriver(ctx, g, spec, alg, opt, best)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			continue // cut: slower than cutFactor × best
		case err != nil:
			return Measurement{}, 0, 0, err
		}
		times[alg] = d
		if best == 0 || d < best {
			best, bestAlg = d, alg
		}
		if alg != core.NDBas {
			actualM = res.NumMatches
		}
	}

	regretOf := func(alg core.Algorithm) float64 {
		if d, ok := times[alg]; ok {
			return float64(d) / float64(best)
		}
		return cutFactor
	}
	regret, staticRegret = regretOf(chosen), regretOf(static)
	m = Measurement{
		Seconds: regret * best.Seconds(), // the executed driver's time, or the cut
		Values: []KV{
			{"est_M", fmt.Sprintf("%.3g", phys.Choices[0].Matches)},
			{"est_F", fmt.Sprintf("%.0f", phys.Focals)},
			{"F", fmt.Sprint(actualF)},
			{"qerr_F", fmt.Sprintf("%.2f", qError(phys.Focals, float64(actualF)))},
			{"choice", string(chosen)},
			{"best", string(bestAlg)},
			{"regret", fmt.Sprintf("%.2f", regret)},
			{"static", string(static)},
			{"static_regret", fmt.Sprintf("%.2f", staticRegret)},
		},
	}
	if actualM >= 0 {
		m.Values = append(m.Values,
			KV{"M", fmt.Sprint(actualM)},
			KV{"qerr_M", fmt.Sprintf("%.2f", qError(phys.Choices[0].Matches, float64(actualM)))})
	}
	for _, alg := range core.Algorithms {
		cell := ">10x"
		if d, ok := times[alg]; ok {
			cell = fmt.Sprintf("%.3g", float64(d)/float64(time.Millisecond))
		}
		m.Values = append(m.Values, KV{"ms." + string(alg), cell})
	}
	return m, regret, staticRegret, nil
}

// timeDriver runs one forced driver and returns its fastest time over a
// few repetitions (at most 5, stopping once 20 ms have been spent). With
// best > 0 the run is cancelled at cutFactor × best, surfacing as
// context.DeadlineExceeded.
func timeDriver(ctx context.Context, g *graph.Graph, spec core.Spec, alg core.Algorithm, opt core.Options, best time.Duration) (time.Duration, *core.Result, error) {
	var fastest, spent time.Duration
	var res *core.Result
	for rep := 0; rep < 5 && spent < 20*time.Millisecond; rep++ {
		runCtx, cancel := ctx, context.CancelFunc(func() {})
		if best > 0 {
			runCtx, cancel = context.WithTimeout(ctx, cutFactor*best)
		}
		start := time.Now()
		r, err := core.CountContext(runCtx, g, spec, alg, opt)
		d := time.Since(start)
		cancel()
		if err != nil {
			return 0, nil, err
		}
		res, spent = r, spent+d
		if fastest == 0 || d < fastest {
			fastest = d
		}
	}
	return fastest, res, nil
}
