package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the oracle passes and that exactly the declared metrics come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full stack")
	}
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range []string{"word", "wechat", "push"} {
		for _, traced := range []bool{false, true} {
			res, err := run(options{workload: w, seed: 7, seconds: 0.4, traced: traced, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.out.Correct || res.out.Failed != 0 || res.out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%q",
					w, traced, res.out.Correct, res.out.Attempted, res.out.Failed, res.notes)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, name := range want {
				if _, ok := res.out.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, name)
				}
			}
			if len(res.out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.out.Metrics), len(want))
			}
		}
	}
}

func TestBadWorkloadFails(t *testing.T) {
	if _, err := run(options{workload: "nope", seconds: 1, workdir: t.TempDir()}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
