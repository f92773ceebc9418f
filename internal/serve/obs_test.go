package serve

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

func TestMetricsLatencyQuantileNearestRank(t *testing.T) {
	m := Metrics{latencies: []float64{0.004, 0.001, 0.003, 0.002}}
	if got := m.LatencyQuantile(0.5); got != 0.002 { // ceil(0.5*4)=2nd
		t.Fatalf("p50 = %v, want 0.002", got)
	}
	if got := m.LatencyQuantile(1); got != 0.004 {
		t.Fatalf("p100 = %v, want 0.004", got)
	}
	if got := (&Metrics{}).LatencyQuantile(0.99); got != 0 {
		t.Fatalf("empty metrics quantile = %v, want 0", got)
	}
}

// TestGoldenMetricsDump pins the exact stable /metrics dump of a seeded
// simulation campaign: the same bytes CI diffs across -workers values must
// also be stable across commits unless the simulator's behavior
// intentionally changes (then: go test ./internal/serve -run Golden -update).
func TestGoldenMetricsDump(t *testing.T) {
	cfg := testCampaignConfig()
	cfg.Obs = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(0)
	MLPCampaign(cfg)

	var b strings.Builder
	cfg.Obs.WriteStable(&b)
	got := b.String()
	if !strings.Contains(got, "serve_sim_offered_total") {
		t.Fatalf("dump is missing the sim counters:\n%s", got)
	}
	if spans := cfg.Tracer.Snapshot(); len(spans) == 0 {
		t.Fatal("seeded sim produced no trace spans")
	}

	golden := filepath.Join("testdata", "golden_metrics.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("stable metrics dump drifted from golden (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSimObsDumpWorkerIndependence is the in-test twin of the CI obs-smoke
// diff: the stable dump must not change with scheduling, which the golden
// test can't see because it runs at one worker count.
func TestSimObsDumpWorkerIndependence(t *testing.T) {
	run := func() string {
		cfg := testCampaignConfig()
		cfg.Obs = obs.NewRegistry()
		MLPCampaign(cfg)
		var b strings.Builder
		cfg.Obs.WriteStable(&b)
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("stable dumps differ between runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}
