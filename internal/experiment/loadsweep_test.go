package experiment

import (
	"testing"

	"repro/internal/loadgen"
)

// TestLoadSweepRungs runs two tiny in-process rungs — the benchall -exp
// loadsweep path end to end — and checks each rung reports one converged
// result that CheckLoad accepts.
func TestLoadSweepRungs(t *testing.T) {
	rs, err := LoadSweep(LoadSweepConfig{ClientCounts: []int{4, 8}, TotalOps: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d rungs, want 2", len(rs))
	}
	for i, want := range []int{4, 8} {
		r := rs[i]
		if r.Clients != want || r.Result == nil || r.Result.Clients != want {
			t.Fatalf("rung %d: %+v, want one result for %d clients", i, r, want)
		}
		if !r.Result.Converged || r.Result.Errors != 0 || r.Result.Ops != want*(64/want) {
			t.Errorf("rung %d: %+v", i, r.Result)
		}
	}
	if err := CheckLoad(rs); err != nil {
		t.Fatalf("CheckLoad: %v", err)
	}
}

// CheckLoad must fail a rung that did not converge, even with no errors.
func TestCheckLoadRejectsUnconverged(t *testing.T) {
	rs := []LoadResult{
		{Clients: 4, Result: &loadgen.Result{Converged: true}},
		{Clients: 8, Result: &loadgen.Result{Converged: false}},
	}
	if err := CheckLoad(rs); err == nil {
		t.Fatal("CheckLoad accepted an unconverged rung")
	}
	if err := CheckLoad(rs[:1]); err != nil {
		t.Fatalf("CheckLoad rejected a converged rung: %v", err)
	}
}
