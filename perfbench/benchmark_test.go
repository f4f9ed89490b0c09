package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program prints
// and the workloads it accepts in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprogram:\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprogram:\n%v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, err := newWorkload(w.Name, generatedInputs{}); err != nil {
			t.Error(err)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads in BENCHMARK.json %v, program %v", names, workloadNames)
	}
}
