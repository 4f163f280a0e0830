package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json:
// the share of the old value by which the metric may get worse.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration is the part of BENCHMARK.json the program reads: the
// bounds of the end-to-end metrics and the names of the per-layer ones.
type declaration struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &decl, nil
}

func (d *declaration) bounds() map[string]bound {
	out := map[string]bound{}
	for _, b := range d.EndToEnd {
		out[b.Name] = b
	}
	return out
}

// everyPerLayer returns m with every declared per-layer metric present:
// one the workload does not report (its operations do not go through that
// layer) reads 0 in the declared unit. Only the line the driver reads is
// filled in like this, because the driver wants the same names from
// every workload; reports and the printed rows leave such metrics out.
func (d *declaration) everyPerLayer(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(d.PerLayer))
	for _, b := range d.PerLayer {
		if v, ok := m[b.Name]; ok {
			out[b.Name] = v
		} else {
			out[b.Name] = metric{0, b.Unit}
		}
	}
	return out
}

// spread returns, per metric, (max − min) / median over repeated sets of
// one workload; nil for a single set.
func spread(sets []*result) map[string]float64 {
	if len(sets) < 2 {
		return nil
	}
	out := map[string]float64{}
	for name := range sets[0].Metrics {
		v := make([]float64, len(sets))
		for i, s := range sets {
			v[i] = s.Metrics[name].Value
		}
		sort.Float64s(v)
		if mid := medianFloat(v); mid != 0 {
			out[name] = (v[len(v)-1] - v[0]) / mid
		}
	}
	return out
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSpreads prints each metric's run-to-run spread beside its bound
// and reports whether every spread is within its bound and every set was
// correct.
func printSpreads(w io.Writer, rep *report, bounds map[string]bound) bool {
	ok := true
	fmt.Fprintf(w, "%-24s %-14s %12s %8s %8s  %s\n", "workload", "metric", "last value", "spread", "bound", "verdict")
	for _, r := range rep.Rows {
		for _, name := range sortedNames(r.Spread) {
			b, known := bounds[name]
			if !known {
				continue
			}
			verdict := "agree"
			if r.Spread[name] > b.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(w, "%-24s %-14s %12.4f %7.1f%% %7.1f%%  %s\n",
				r.Workload, name, r.Metrics[name].Value, 100*r.Spread[name], 100*b.Bound, verdict)
		}
		if !r.Correct {
			fmt.Fprintf(w, "%-24s failed %d of %d operations\n", r.Workload, r.Failed, r.Attempted)
			ok = false
		}
	}
	return ok
}

// usable reports whether v can be one side of a ratio. NaN fails v > 0.
func usable(v float64) bool { return v > 0 && !math.IsInf(v, 0) }

// verdict classifies new against old for one metric. The ratio's base is
// the old value. A recorded spread wider than the bound on either side
// means the runs cannot resolve a change of the bound's size; so does a
// side with no usable value.
func verdict(b bound, old, new, spreadOld, spreadNew float64) string {
	if !usable(old) || !usable(new) || max(spreadOld, spreadNew) > b.Bound {
		return "unresolved"
	}
	change := new/old - 1 // > 0: the value grew
	if b.Better == "higher" {
		change = -change
	}
	switch {
	case change > b.Bound:
		return "worse"
	case change < -b.Bound:
		return "better"
	default:
		return "same"
	}
}

func readReport(path string) (map[string]row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]row{}
	for _, r := range rep.Rows {
		if r.Trace == 0 {
			out[r.Workload] = r
		}
	}
	return out, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// reports and returns a non-zero exit code when any metric got worse by
// more than its bound, any workload's failure ratio rose, or a workload
// or a metric's value is missing on either side: a gate that cannot see a
// workload does not pass it.
func compareFiles(w io.Writer, oldPath, newPath string, bounds map[string]bound) int {
	olds, errOld := readReport(oldPath)
	news, errNew := readReport(newPath)
	if err := errors.Join(errOld, errNew); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return compareReports(w, olds, news, bounds)
}

func compareReports(w io.Writer, olds, news map[string]row, bounds map[string]bound) int {
	code := 0
	fmt.Fprintf(w, "%-24s %-14s %12s %12s %18s %7s  %s\n", "workload", "metric", "old", "new", "new/old (base old)", "bound", "verdict")
	for _, wl := range workloads {
		o, okOld := olds[wl.name]
		n, okNew := news[wl.name]
		if !okOld && !okNew {
			continue // a report of a single workload compares that workload
		}
		if !okOld || !okNew {
			fmt.Fprintf(w, "%-24s in one report only: unresolved\n", wl.name)
			code = 1
			continue
		}
		for _, name := range sortedNames(bounds) {
			ov, nv := o.Metrics[name].Value, n.Metrics[name].Value
			v := verdict(bounds[name], ov, nv, o.Spread[name], n.Spread[name])
			if v == "worse" || !usable(ov) || !usable(nv) {
				code = 1
			}
			fmt.Fprintf(w, "%-24s %-14s %12.4f %12.4f %18.3f %6.0f%%  %s\n", wl.name, name, ov, nv, nv/ov, 100*bounds[name].Bound, v)
		}
		of, nf := failRatio(o), failRatio(n)
		v := "same"
		if nf > of {
			v, code = "worse", 1
		}
		fmt.Fprintf(w, "%-24s %-14s %12.6f %12.6f %18s %7s  %s\n", wl.name, "fail_ratio", of, nf, "-", "any", v)
	}
	return code
}

func failRatio(r row) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
