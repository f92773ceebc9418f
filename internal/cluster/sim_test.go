package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// countingPipe counts Infer calls per request-stream index. It has no Pure
// method, so RunClusterSim trusts it.
type countingPipe struct {
	serve.Pipeline
	index map[*float64]int // request input → stream index
	calls map[int]int
}

func (p *countingPipe) Infer(x tensor.Vector, verify bool) (tensor.Vector, bool) {
	p.calls[p.index[&x[0]]]++
	return p.Pipeline.Infer(x, verify)
}

// TestGradeOncePerPair drives every quick campaign run through counting
// pipelines: each (shard, request) pair is inferred at most once per run,
// and the table and metric dump still match the golden.
func TestGradeOncePerPair(t *testing.T) {
	cfg := DefaultCampaignConfig(1234, true)
	cfg.Obs = obs.NewRegistry()
	pipes, reqs := buildShards(cfg)
	index := map[*float64]int{}
	for i, r := range reqs {
		index[&r.X[0]] = i
	}
	counters := make([]*countingPipe, len(pipes))
	wrapped := make([]serve.Pipeline, len(pipes))
	for sh, p := range pipes {
		counters[sh] = &countingPipe{Pipeline: p, index: index}
		wrapped[sh] = counters[sh]
	}
	var results []CellResult
	infers, pairs := 0, 0
	for _, c := range cellRuns(cfg, wrapped, reqs) {
		for _, cp := range counters {
			cp.calls = map[int]int{}
		}
		m := RunClusterSim(c.sim)
		for sh, cp := range counters {
			for i, n := range cp.calls {
				if n > 1 {
					t.Errorf("%s/%g/%s: shard %d inferred request %d %d times", c.scenario, c.level, c.sim.Policy.Name, sh, i, n)
				}
				infers += n
				pairs++
			}
		}
		results = append(results, CellResult{Scenario: c.scenario, Level: c.level, Policy: c.sim.Policy.Name, M: m})
	}
	if infers != pairs || infers == 0 {
		t.Fatalf("%d Infer calls over %d distinct pairs", infers, pairs)
	}
	checkGolden(t, renderQuick(results, cfg.Obs))
}

// purity is a pipeline that reports its purity.
type purity struct {
	serve.Pipeline
	pure bool
}

func (p purity) Pure() bool { return p.pure }

// TestRunClusterSimRejectsImpurePipes pins the purity precondition the
// grading cache relies on: a shard pipeline reporting Pure() == false
// panics naming its shard, while pure ones run.
func TestRunClusterSimRejectsImpurePipes(t *testing.T) {
	cfg := DefaultCampaignConfig(1234, true)
	pipes, reqs := buildShards(cfg)
	run := func(impure int) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		wrapped := make([]serve.Pipeline, len(pipes))
		for sh, p := range pipes {
			wrapped[sh] = purity{Pipeline: p, pure: sh != impure}
		}
		sim := cellRuns(cfg, wrapped, reqs)[0].sim
		sim.Duration = 0.05
		RunClusterSim(sim)
		return ""
	}
	if msg := run(-1); msg != "" {
		t.Fatalf("pure pipelines panicked: %s", msg)
	}
	if msg := run(3); !strings.Contains(msg, "shard 3") {
		t.Fatalf("impure shard 3: panic %q, want one naming shard 3", msg)
	}
}

// BenchmarkRunClusterSim times one quick R6 cell (crash level 1, full
// policy) on programmed pure shard pipelines.
func BenchmarkRunClusterSim(b *testing.B) {
	cfg := DefaultCampaignConfig(1234, true)
	pipes, reqs := buildShards(cfg)
	var sim SimConfig
	for _, c := range cellRuns(cfg, pipes, reqs) {
		if c.scenario == "crash" && c.level == 1 && c.sim.Policy.Name == "full" {
			sim = c.sim
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	offered := 0
	for i := 0; i < b.N; i++ {
		offered += RunClusterSim(sim).Offered
	}
	b.ReportMetric(float64(offered)/b.Elapsed().Seconds(), "req/s")
}
