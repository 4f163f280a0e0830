// Package exp regenerates the paper's evaluation (Figure 4(a)–(h) and the
// in-text comparisons): workload generation, parameter sweeps, timed runs
// of every algorithm, and printable result series. It is shared by
// cmd/experiments and the repository's benchmark suite.
//
// Every experiment runs at one of three scales: "unit" finishes in seconds
// (CI, benchmarks), "small" in minutes, and "paper" reproduces the paper's
// graph sizes (up to 1M nodes / 5M edges; expect long runs — the paper's
// own GQL square measurement took 37 hours).
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Scale selects experiment sizing.
type Scale string

// Scales.
const (
	Unit  Scale = "unit"
	Small Scale = "small"
	Paper Scale = "paper"
)

// ParseScale validates a scale name.
func ParseScale(s string) (Scale, error) {
	switch Scale(strings.ToLower(s)) {
	case Unit:
		return Unit, nil
	case Small:
		return Small, nil
	case Paper:
		return Paper, nil
	}
	return "", fmt.Errorf("exp: unknown scale %q (want unit, small or paper)", s)
}

// Config parameterizes an experiment run.
type Config struct {
	Scale Scale
	Seed  int64
	// IncludeNDBas forces the ND-BAS baseline into experiments where it
	// is normally restricted to the smallest size (it is orders of
	// magnitude slower; the paper reports 218x at 20K nodes).
	IncludeNDBas bool
}

// KV is one labeled dimension of a measurement (e.g. size=20000).
type KV struct {
	Key   string
	Value string
}

// Measurement is one timed/valued data point of a figure.
type Measurement struct {
	Labels  []KV
	Seconds float64
	// Values holds named metrics beyond runtime (e.g. matches=1234,
	// precision=0.42).
	Values []KV
}

// Label renders the labels as "k=v k=v".
func (m Measurement) Label() string {
	parts := make([]string, len(m.Labels))
	for i, kv := range m.Labels {
		parts[i] = kv.Key + "=" + kv.Value
	}
	return strings.Join(parts, " ")
}

// Get returns a label or value by key.
func (m Measurement) Get(key string) (string, bool) {
	for _, kv := range m.Labels {
		if kv.Key == key {
			return kv.Value, true
		}
	}
	for _, kv := range m.Values {
		if kv.Key == key {
			return kv.Value, true
		}
	}
	return "", false
}

// Figure is one reproducible experiment.
type Figure struct {
	ID    string
	Title string
	Run   func(cfg Config, progress io.Writer) ([]Measurement, error)
}

// Figures returns all experiments in paper order.
func Figures() []Figure {
	return []Figure{
		{"4a", "CN vs GQL pattern matching, varying graph size (labeled, 4 labels, clq3 & clq4)", Fig4a},
		{"4b", "CN vs GQL pattern matching, varying pattern (labeled 1M-node graph at paper scale)", Fig4b},
		{"4c", "Pattern census, varying graph size (unlabeled clq3-unlb, k=2, all algorithms)", Fig4c},
		{"4d", "Pattern census, varying graph size (labeled clq3, k=2)", Fig4d},
		{"4e", "Pattern census, varying focal node selectivity (WHERE RND() < R)", Fig4e},
		{"4f", "Effect of number and choice of centers on PT-OPT (DEG-CNTR vs RND-CNTR)", Fig4f},
		{"4g", "Effect of pattern match clustering on PT-OPT (NO/RND/OPT-CLUST, varying cluster count)", Fig4g},
		{"4h", "DBLP-style link prediction: 9 census measures vs Jaccard vs random, precision@50/@600", Fig4h},
		{"plan", "Planner audit: |M| and |F| q-error, executed driver vs fastest forced driver, regret", FigPlan},
		{"ext", "Extensions: shortcut ablation, workers, batching, incremental, approximation, signatures", FigExt},
	}
}

// FigureByID looks up an experiment.
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("exp: unknown figure %q", id)
}

// Print renders measurements as an aligned table.
func Print(w io.Writer, fig Figure, ms []Measurement) {
	fmt.Fprintf(w, "== Figure %s: %s ==\n", fig.ID, fig.Title)
	// Collect the union of label and value keys for the header.
	var labelKeys, valueKeys []string
	seenL, seenV := map[string]bool{}, map[string]bool{}
	for _, m := range ms {
		for _, kv := range m.Labels {
			if !seenL[kv.Key] {
				seenL[kv.Key] = true
				labelKeys = append(labelKeys, kv.Key)
			}
		}
		for _, kv := range m.Values {
			if !seenV[kv.Key] {
				seenV[kv.Key] = true
				valueKeys = append(valueKeys, kv.Key)
			}
		}
	}
	sort.Strings(valueKeys)
	header := append(append([]string{}, labelKeys...), "seconds")
	header = append(header, valueKeys...)
	rows := make([][]string, 0, len(ms))
	for _, m := range ms {
		row := make([]string, 0, len(header))
		for _, k := range labelKeys {
			v, _ := m.Get(k)
			row = append(row, v)
		}
		row = append(row, fmt.Sprintf("%.4f", m.Seconds))
		for _, k := range valueKeys {
			v := "-"
			for _, kv := range m.Values {
				if kv.Key == k {
					v = kv.Value
					break
				}
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
}

// timeIt runs f and returns its wall-clock duration in seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}
