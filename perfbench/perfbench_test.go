package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the program's output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsTiny runs every workload on a shrunken fleet, untraced and
// traced, and checks that the run's own correctness checks pass and that
// it emits exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
	}
	for name := range fleets(true) {
		if !declared[name] {
			t.Errorf("workload %s is not declared in BENCHMARK.json", name)
		}
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(options{workload: w.Name, seed: 7, seconds: 2, trace: trace, out: t.TempDir(), tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: checks failed: %v", w.Name, trace, res.problems)
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d operations", w.Name, trace, res.Attempted)
			}
			got := map[string]bool{}
			for name := range res.Metrics {
				got[name] = true
			}
			for _, m := range want {
				e, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
					continue
				}
				if e.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", w.Name, trace, m.Name, e.Unit, m.Unit)
				}
				delete(got, m.Name)
			}
			var extra []string
			for name := range got {
				extra = append(extra, name)
			}
			sort.Strings(extra)
			if len(extra) > 0 {
				t.Errorf("%s trace=%v: undeclared metrics %v", w.Name, trace, extra)
			}
		}
	}
}
