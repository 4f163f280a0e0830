package exp

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func runFig(t *testing.T, id string) []Measurement {
	t.Helper()
	fig, err := FigureByID(id)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := fig.Run(Config{Scale: Unit, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatalf("figure %s produced no measurements", id)
	}
	return ms
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"unit", "Small", "PAPER"} {
		if _, err := ParseScale(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale should error")
	}
}

func TestFiguresRegistry(t *testing.T) {
	figs := Figures()
	if len(figs) != 10 {
		t.Fatalf("figures = %d want 10", len(figs))
	}
	for _, f := range figs {
		if f.ID == "" || f.Title == "" || f.Run == nil {
			t.Fatalf("incomplete figure %+v", f)
		}
	}
	if _, err := FigureByID("nope"); err == nil {
		t.Fatal("unknown figure should error")
	}
}

// CN and GQL must agree on match counts within each (size, pattern) cell.
func TestFig4aConsistency(t *testing.T) {
	ms := runFig(t, "4a")
	byCell := map[string]map[string]string{}
	for _, m := range ms {
		size, _ := m.Get("size")
		pat, _ := m.Get("pattern")
		alg, _ := m.Get("alg")
		matches, _ := m.Get("matches")
		key := size + "/" + pat
		if byCell[key] == nil {
			byCell[key] = map[string]string{}
		}
		byCell[key][alg] = matches
	}
	for cell, algs := range byCell {
		if algs["CN"] != algs["GQL"] {
			t.Fatalf("cell %s: CN found %s matches, GQL %s", cell, algs["CN"], algs["GQL"])
		}
	}
}

func TestFig4bConsistency(t *testing.T) {
	ms := runFig(t, "4b")
	byPattern := map[string]map[string]string{}
	for _, m := range ms {
		pat, _ := m.Get("pattern")
		alg, _ := m.Get("alg")
		matches, _ := m.Get("matches")
		if byPattern[pat] == nil {
			byPattern[pat] = map[string]string{}
		}
		byPattern[pat][alg] = matches
	}
	if len(byPattern) != 3 {
		t.Fatalf("patterns = %d want 3", len(byPattern))
	}
	for pat, algs := range byPattern {
		if algs["CN"] != algs["GQL"] {
			t.Fatalf("pattern %s: CN %s vs GQL %s", pat, algs["CN"], algs["GQL"])
		}
	}
}

// All census algorithms within a (size) cell must report the same total
// count — the cross-algorithm consistency the paper's plots rely on.
func TestFig4cTotalsAgree(t *testing.T) {
	ms := runFig(t, "4c")
	bySize := map[string]map[string]string{}
	for _, m := range ms {
		size, _ := m.Get("size")
		alg, _ := m.Get("alg")
		total, _ := m.Get("totalCount")
		if bySize[size] == nil {
			bySize[size] = map[string]string{}
		}
		bySize[size][alg] = total
	}
	for size, algs := range bySize {
		var want string
		for alg, total := range algs {
			if want == "" {
				want = total
			} else if total != want {
				t.Fatalf("size %s: %s total %s differs from %s", size, alg, total, want)
			}
		}
	}
	// ND-BAS appears only at the smallest size by default.
	ndBasSizes := map[string]bool{}
	for _, m := range ms {
		if alg, _ := m.Get("alg"); alg == "ND-BAS" {
			size, _ := m.Get("size")
			ndBasSizes[size] = true
		}
	}
	if len(ndBasSizes) != 1 {
		t.Fatalf("ND-BAS should run at exactly one size, ran at %v", ndBasSizes)
	}
}

func TestFig4dTotalsAgree(t *testing.T) {
	ms := runFig(t, "4d")
	bySize := map[string]string{}
	for _, m := range ms {
		size, _ := m.Get("size")
		total, _ := m.Get("totalCount")
		if want, ok := bySize[size]; ok && want != total {
			alg, _ := m.Get("alg")
			t.Fatalf("size %s alg %s: total %s differs from %s", size, alg, total, want)
		}
		bySize[size] = total
	}
}

func TestFig4eSelectivityShape(t *testing.T) {
	ms := runFig(t, "4e")
	// Node-driven totals must grow with R; every algorithm must agree on
	// totals at the same R.
	byR := map[string]map[string]string{}
	for _, m := range ms {
		r, _ := m.Get("R")
		alg, _ := m.Get("alg")
		total, _ := m.Get("totalCount")
		if byR[r] == nil {
			byR[r] = map[string]string{}
		}
		byR[r][alg] = total
	}
	for r, algs := range byR {
		var want string
		for alg, total := range algs {
			if want == "" {
				want = total
			} else if total != want {
				t.Fatalf("R=%s: %s total %s differs from %s", r, alg, total, want)
			}
		}
	}
	if len(byR) != 5 {
		t.Fatalf("R points = %d want 5", len(byR))
	}
}

func TestFig4fCellsAndConsistency(t *testing.T) {
	ms := runFig(t, "4f")
	if len(ms) != 14 { // 2 strategies x 7 center counts
		t.Fatalf("measurements = %d want 14", len(ms))
	}
	var want string
	for _, m := range ms {
		total, _ := m.Get("totalCount")
		if want == "" {
			want = total
		} else if total != want {
			t.Fatalf("totals differ across center configurations: %s vs %s", total, want)
		}
	}
}

func TestFig4gVariants(t *testing.T) {
	ms := runFig(t, "4g")
	variants := map[string]int{}
	var want string
	for _, m := range ms {
		v, _ := m.Get("variant")
		variants[v]++
		total, _ := m.Get("totalCount")
		if want == "" {
			want = total
		} else if total != want {
			t.Fatalf("totals differ across clustering variants")
		}
	}
	if variants["NO-CLUST"] != 1 || variants["RND-CLUST"] != 4 || variants["OPT-CLUST"] != 4 {
		t.Fatalf("variant cells wrong: %v", variants)
	}
}

func TestFig4hShape(t *testing.T) {
	ms := runFig(t, "4h")
	// 9 measures x 3 algorithms (unit scale includes ND-BAS) + jaccard +
	// random.
	if len(ms) != 9*3+2 {
		t.Fatalf("measurements = %d want %d", len(ms), 9*3+2)
	}
	precision := map[string]float64{}
	for _, m := range ms {
		name, _ := m.Get("measure")
		alg, _ := m.Get("alg")
		p50s, ok := m.Get("p@50")
		if !ok {
			t.Fatalf("%s missing p@50", name)
		}
		p50, err := strconv.ParseFloat(p50s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if alg == "PT-OPT" || alg == "-" {
			precision[name] = p50
		}
		// Same measure must yield identical precision regardless of the
		// evaluation algorithm.
		if alg == "PT-BAS" || alg == "ND-BAS" {
			if precision[name] != p50 {
				t.Fatalf("measure %s: %s precision %.4f differs from PT-OPT %.4f", name, alg, p50, precision[name])
			}
		}
	}
	// Shape checks from the paper: common-neighborhood measures beat the
	// random predictor, and node@2 is a strong predictor.
	if precision["random"] >= precision["node@2"] {
		t.Fatalf("random (%.4f) should not beat node@2 (%.4f)", precision["random"], precision["node@2"])
	}
	if precision["node@2"] <= 0 {
		t.Fatal("node@2 precision should be positive")
	}
}

func TestFigExt(t *testing.T) {
	ms := runFig(t, "ext")
	byExp := map[string]int{}
	for _, m := range ms {
		name, _ := m.Get("experiment")
		byExp[name]++
	}
	for _, want := range []string{"shortcuts", "workers-ptopt", "count-many", "incremental", "approx", "signature"} {
		if byExp[want] == 0 {
			t.Fatalf("experiment %s missing: %v", want, byExp)
		}
	}
	// Approximation at rate 1.0 must be exact.
	for _, m := range ms {
		if cfg, _ := m.Get("config"); cfg == "rate=1.00" {
			if rel, _ := m.Get("relError"); rel != "0.0000" {
				t.Fatalf("rate 1.0 relError = %s", rel)
			}
		}
	}
	// Signature pruning must keep a strict subset.
	for _, m := range ms {
		if name, _ := m.Get("experiment"); name == "signature" {
			kept, _ := m.Get("keptFrac")
			var f float64
			if _, err := fmt.Sscanf(kept, "%f", &f); err != nil || f <= 0 || f >= 1 {
				t.Fatalf("keptFrac = %s", kept)
			}
		}
	}
}

func TestPrintRendersTable(t *testing.T) {
	fig, _ := FigureByID("4f")
	ms := []Measurement{
		{Labels: []KV{{"strategy", "DEG-CNTR"}, {"centers", "12"}}, Seconds: 1.5,
			Values: []KV{{"matches", "10"}}},
	}
	var buf bytes.Buffer
	Print(&buf, fig, ms)
	out := buf.String()
	for _, frag := range []string{"Figure 4f", "strategy", "centers", "seconds", "DEG-CNTR", "1.5000"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("printed table missing %q:\n%s", frag, out)
		}
	}
}

func TestMeasurementLabel(t *testing.T) {
	m := Measurement{Labels: []KV{{"a", "1"}, {"b", "2"}}}
	if m.Label() != "a=1 b=2" {
		t.Fatalf("Label() = %q", m.Label())
	}
	if _, ok := m.Get("c"); ok {
		t.Fatal("missing key should not resolve")
	}
}

// The planner audit at one small size: one row per case, a regret of at
// least 1 for the executed and the static driver, the actual |F| of each
// focal selection, the quantile and geometric-mean rows and the
// re-pricing tally.
func TestPlanSweepShape(t *testing.T) {
	ms, err := planSweep(context.Background(), []int{300}, []int{1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := 2 * len(planPatterns()) * len(planFocals)
	if len(ms) != cases+5 {
		t.Fatalf("rows = %d want %d cases + 5 summary rows", len(ms), cases)
	}
	wantF := map[string]string{"2%": "6", "20%": "60", "100%": "300"}
	for _, m := range ms[:cases] {
		focal, _ := m.Get("focal")
		if f, _ := m.Get("F"); f != wantF[focal] {
			t.Fatalf("%s: |F| = %s want %s", m.Label(), f, wantF[focal])
		}
		for _, col := range []string{"regret", "static_regret"} {
			r, _ := m.Get(col)
			if v, err := strconv.ParseFloat(r, 64); err != nil || v < 1 {
				t.Fatalf("%s: %s %q", m.Label(), col, r)
			}
		}
		for _, col := range []string{"choice", "static"} {
			alg, _ := m.Get(col)
			if _, ok := m.Get("ms." + alg); !ok {
				t.Fatalf("%s: %s driver %q has no timing column", m.Label(), col, alg)
			}
		}
	}
	for i, q := range []string{"p50", "p90", "max", "gmean", "repriced"} {
		if n, _ := ms[cases+i].Get("n"); n != q {
			t.Fatalf("summary row %d = %q want %q", i, n, q)
		}
	}
}
