package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestTracedRunKeepsOutput runs heal and train untraced and traced: the
// wrappers must leave every simulated statistic and epoch loss unchanged.
func TestTracedRunKeepsOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full heal and train workloads")
	}
	for _, w := range []string{"heal", "train"} {
		o := opts{workload: w, seed: 7, seconds: 0.01}
		plain := workloads[w](o, nil)
		traced := workloads[w](o, newRecorder())
		for _, r := range []*result{plain, traced} {
			if len(r.errs) > 0 {
				t.Fatalf("%s: checks failed: %v", w, r.errs)
			}
		}
		if len(plain.digest) == 0 {
			t.Fatalf("%s: empty digest", w)
		}
		if d := diffDigest(plain.digest, traced.digest); d != "" {
			t.Errorf("%s: traced run changed the output: %s", w, d)
		}
		if traced.layer["nn.infer_s"] == 0 && traced.layer["analog.update_us.p50"] == 0 {
			t.Errorf("%s: traced run recorded no layer time", w)
		}
	}
}

// TestManifestMatchesMetrics keeps BENCHMARK.json in step with the metric
// tables the benchmark prints.
func TestManifestMatchesMetrics(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var manifest struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &manifest); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("manifest lists workloads %v, benchmark has %d", names, len(workloads))
	}
	var e2e, layer []metric
	for _, m := range endToEnd {
		b := m.bound
		e2e = append(e2e, metric{m.name, m.unit, m.better, &b})
		for _, w := range names {
			if m.meaning[w] == "" {
				t.Errorf("end-to-end metric %s has no meaning on workload %s", m.name, w)
			}
		}
	}
	for _, m := range perLayer {
		layer = append(layer, metric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	if !reflect.DeepEqual(manifest.EndToEnd, e2e) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the benchmark's table")
	}
	if !reflect.DeepEqual(manifest.PerLayer, layer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the benchmark's table")
	}
}
