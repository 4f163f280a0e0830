package core

import (
	"context"
	"errors"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/pattern"
)

func TestCountManyMatchesIndividualRuns(t *testing.T) {
	g := gen.PreferentialAttachment(300, 4, 7)
	gen.AssignLabels(g, 3, 8)
	specs := []Spec{
		{Pattern: pattern.SingleNode("n", ""), K: 2},
		{Pattern: pattern.SingleEdge("e", nil), K: 2},
		{Pattern: pattern.Clique("clq3", 3, nil), K: 2},
		{Pattern: pattern.Clique("clq3l", 3, []string{"l0", "l1", "l2"}), K: 2},
	}
	batch, err := CountMany(g, specs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(specs) {
		t.Fatalf("results = %d", len(batch))
	}
	for i, spec := range specs {
		if want := len(referenceMatches(g, spec)); batch[i].NumMatches != want {
			t.Fatalf("spec %d: NumMatches %d want %d", i, batch[i].NumMatches, want)
		}
		want := bruteCounts(t, g, spec)
		for n := range want {
			if batch[i].Counts[n] != want[n] {
				t.Fatalf("spec %d node %d: %d want %d", i, n, batch[i].Counts[n], want[n])
			}
		}
	}
}

func TestCountManyWithFocalAndSubpattern(t *testing.T) {
	g := gen.ErdosRenyi(40, 90, 9)
	p := pattern.Clique("clq3", 3, nil)
	if err := p.AddSubpattern("corner", []int{0}); err != nil {
		t.Fatal(err)
	}
	focal := []graph.NodeID{0, 5, 9, 30}
	specs := []Spec{
		{Pattern: p, Subpattern: "corner", K: 1, Focal: focal},
		{Pattern: pattern.SingleEdge("e", nil), K: 1, Focal: focal},
	}
	batch, err := CountMany(g, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want := bruteCounts(t, g, spec)
		for _, n := range focal {
			if batch[i].Counts[n] != want[n] {
				t.Fatalf("spec %d node %d: %d want %d", i, n, batch[i].Counts[n], want[n])
			}
		}
	}
}

func TestCountManyValidation(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 1)
	if res, err := CountMany(g, nil, Options{}); err != nil || res != nil {
		t.Fatal("empty spec list should be a no-op")
	}
	mixedK := []Spec{
		{Pattern: pattern.SingleNode("n", ""), K: 1},
		{Pattern: pattern.SingleEdge("e", nil), K: 2},
	}
	if _, err := CountMany(g, mixedK, Options{}); err == nil {
		t.Fatal("mixed radii should error")
	}
	mixedFocal := []Spec{
		{Pattern: pattern.SingleNode("n", ""), K: 1},
		{Pattern: pattern.SingleEdge("e", nil), K: 1, Focal: []graph.NodeID{1}},
	}
	if _, err := CountMany(g, mixedFocal, Options{}); err == nil {
		t.Fatal("mixed focal sets should error")
	}
	bad := []Spec{{Pattern: nil, K: 1}}
	if _, err := CountMany(g, bad, Options{}); err == nil {
		t.Fatal("invalid spec should error")
	}
}

func TestCountManyNoMatches(t *testing.T) {
	g := gen.ErdosRenyi(15, 20, 3)
	specs := []Spec{
		{Pattern: pattern.Clique("clq6", 6, nil), K: 1},
		{Pattern: pattern.SingleNode("n", ""), K: 1},
	}
	batch, err := CountMany(g, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < g.NumNodes(); n++ {
		if batch[0].Counts[n] != 0 {
			t.Fatal("clq6 counts should be zero")
		}
		if batch[1].Counts[n] == 0 {
			t.Fatal("single-node counts should be positive")
		}
	}
}

// TestCountManyMemoryBudget checks that the batch charges every spec's
// count column against MemoryBudget, as the single-spec drivers do: clq6
// has no matches here, so the columns are the only charge.
func TestCountManyMemoryBudget(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 3)
	specs := []Spec{{Pattern: pattern.Clique("clq6", 6, nil), K: 1}}
	_, err := CountManyContext(context.Background(), g, specs, Options{Limits: Limits{MemoryBudget: 64}})
	var le *LimitError
	if !errors.As(err, &le) || le.Limit != "memory-budget" {
		t.Fatalf("err = %v, want a memory-budget *LimitError", err)
	}
}
