package cluster

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// renderQuick is the golden text of one quick campaign: the R6 table plus
// the stable metric dump its cells accumulated into reg.
func renderQuick(results []CellResult, reg *obs.Registry) string {
	var b strings.Builder
	b.WriteString(FormatClusterTable("sharded analog serving fleet (node-level chaos)", results))
	b.WriteString("\n")
	reg.WriteStable(&b)
	return b.String()
}

// checkGolden compares got against testdata/golden_quick.txt, rewriting the
// file first under -update.
func checkGolden(t *testing.T, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "golden_quick.txt")
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
		t.Fatalf("quick R6 campaign drifted from golden (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenQuickCampaign pins the exact quick R6 table and stable metric
// dump across commits: simulator refactors must leave both byte-identical
// unless the fleet's behavior intentionally changes (then: go test
// ./internal/cluster -run Golden -update).
func TestGoldenQuickCampaign(t *testing.T) {
	cfg := DefaultCampaignConfig(1234, true)
	cfg.Obs = obs.NewRegistry()
	checkGolden(t, renderQuick(Campaign(cfg), cfg.Obs))
}
