package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// BENCHMARK.json declares what the benchmark reports; the two must agree.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Fatalf("workloads %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workloads %v, want %v", got, want)
			}
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d/%d metrics declared, %d/%d reported", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	setupBound := 0.0
	for i, m := range bf.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, reported %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has bound %v, above setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	for i, m := range bf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, reported %+v", i, m, perLayer[i])
		}
	}
}

func TestJudge(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 100, 101, 99}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 130, 131, 129}
	if v := judge(a, a, "lower", 0.1, true); !v.agree || v.worse != 0 {
		t.Errorf("same runs: %+v", v)
	}
	if v := judge(a, slower, "lower", 0.1, true); v.agree {
		t.Errorf("30%% slower agreed within 10%%: %+v", v)
	}
	if v := judge(a, slower, "higher", 0.1, true); !v.agree {
		t.Errorf("30%% higher rate disagreed: %+v", v)
	}
	wide := []float64{50, 150, 60, 140, 100, 100, 70, 130, 100, 100}
	if v := judge(a, wide, "lower", 0.1, true); v.agree {
		t.Errorf("spread %.2f over the bound agreed", v.spreadB)
	}
	if v := judge(a, wide, "lower", 0.1, false); !v.agree {
		t.Errorf("unchecked spread disagreed: %+v", v)
	}
}
