package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkFileMatchesMetrics checks BENCHMARK.json and the layer map
// against the metric lists the runs print.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	type metric struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runs print %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the runs print %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, perfbench %s", i, w.Name, workloads[i])
		}
	}

	var layers struct {
		Metrics map[string]struct {
			Layer string
			Moves []string
			On    []string
			NotOn []string `json:"not_on"`
		}
	}
	data, err = os.ReadFile("layermap.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w] = true
	}
	for _, m := range perLayer {
		e, ok := layers.Metrics[m.name]
		if !ok || e.Layer == "" || len(e.Moves) == 0 || len(e.On) == 0 {
			t.Errorf("layermap.json: %s has no layer, moves or workloads", m.name)
		}
		for _, w := range append(append([]string(nil), e.On...), e.NotOn...) {
			if !known[w] {
				t.Errorf("layermap.json: %s names unknown workload %q", m.name, w)
			}
		}
	}
	if len(layers.Metrics) != len(perLayer) {
		t.Errorf("layermap.json maps %d metrics, there are %d", len(layers.Metrics), len(perLayer))
	}
}
