package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rngutil"
	"repro/internal/serve"
)

const (
	// fleetGoodputFloor is the lowest acceptable Good/Offered over all cells.
	fleetGoodputFloor = 0.6
	// fleetHardwareSeed fixes the shard model, its pipelines, the node-fault
	// schedules and the simulator's traffic and timing draws; --seed draws
	// which inputs the requests carry, in which order. When the seed drew
	// the model too, goodput ranged from 0.70 to 0.86 between seeds with
	// the 16-12-6 model's own accuracy.
	fleetHardwareSeed = 1
)

// fleetCell is one (scenario, level) node-fault condition of R6.
type fleetCell struct {
	scenario string
	level    float64
	plan     faults.NodePlan
	schedule []faults.NodeEvent
}

// fleetSetup trains R6's shard model and programs one pure analog pipeline
// per shard.
func fleetSetup(seed uint64, shards int, cost *programCost) (*goldenModel, []*serve.MLPPipeline) {
	g := fleetGolden(seed)
	rng := rngutil.New(seed).Child("fleet-shards")
	var pipes []*serve.MLPPipeline
	for sh := 0; sh < shards; sh++ {
		pipes = append(pipes, program(g, nil, nil, rng.Child(fmt.Sprintf("shard%d", sh)), cost).pipe)
	}
	return g, pipes
}

// runFleet drives cluster.RunClusterSim over every R6 scenario, level and
// policy, repeating the whole campaign until the run's time is spent.
func runFleet(o opts, rec *recorder) *result {
	res := newResult()
	ccfg := cluster.DefaultCampaignConfig(fleetHardwareSeed, false)
	var cost programCost
	var g *goldenModel
	var pipes []*serve.MLPPipeline
	setups := repeatSetup(res, func() { g, pipes = fleetSetup(fleetHardwareSeed, ccfg.Shards, &cost) })
	var reqs []serve.SimRequest
	for i := range g.test.X {
		reqs = append(reqs, serve.SimRequest{X: g.test.X[i], Want: g.test.Y[i]})
	}
	reqs = shuffled(reqs, rngutil.New(o.seed).Child("requests"))
	cells := []fleetCell{{scenario: "none"}}
	for _, sc := range ccfg.Scenarios {
		for _, lv := range ccfg.Levels {
			cells = append(cells, fleetCell{scenario: sc, level: lv})
		}
	}
	for ci := range cells {
		c := &cells[ci]
		c.plan = fleetPlan(c.scenario, c.level, ccfg)
		c.schedule = c.plan.Schedule(ccfg.Nodes, ccfg.Duration, rngutil.New(fleetHardwareSeed+7919*uint64(ci+1)))
	}
	var cellSpan int64
	shardPipes := make([]serve.Pipeline, len(pipes))
	for i, p := range pipes {
		shardPipes[i] = p
		if rec != nil {
			shardPipes[i] = &tracedPipeline{rec: rec, pipe: p, parent: &cellSpan}
		}
	}

	var rates, cellMS, slowest []float64
	var total cluster.Metrics
	campaigns := 0
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for campaigns < 3 || time.Now().Before(deadline) {
		var hostS, slow float64
		var sum cluster.Metrics
		var digest []string
		for ci, c := range cells {
			for _, pol := range ccfg.Policies {
				cfg := cluster.SimConfig{
					Policy: pol, Traffic: ccfg.Traffic, Lat: ccfg.Lat, Net: ccfg.Net, Detector: ccfg.Detector,
					Duration: ccfg.Duration, Nodes: ccfg.Nodes,
					Placement:  cluster.Placement{Shards: ccfg.Shards, ReplicasPer: ccfg.ReplicasPer},
					ShardPipes: shardPipes, Requests: reqs, Plan: c.plan, Schedule: c.schedule,
					RefreshEvery: ccfg.RefreshEvery, RNG: rngutil.New(fleetHardwareSeed + 104729*uint64(ci+1)),
				}
				var t0 int64
				if rec != nil {
					cellSpan, t0 = rec.reserve(), rec.now()
				}
				start := time.Now()
				m := cluster.RunClusterSim(cfg)
				took := time.Since(start).Seconds()
				hostS += took
				slow = max(slow, took*1e3)
				cellMS = append(cellMS, took*1e3)
				if rec != nil {
					rec.finish(cellSpan, 0, "RunClusterSim", t0, rec.now(), -1)
				}
				res.attempted++
				if err := m.Check(); err != nil {
					res.failed++
					res.check(false, "fleet %s/%.0f/%s: %v", c.scenario, c.level, pol.Name, err)
				}
				addFleet(&sum, m)
				digest = append(digest, fmt.Sprintf("fleet %s/%g/%s %s p50=%v p99=%v", c.scenario, c.level, pol.Name,
					fields(m), m.LatencyQuantile(0.5), m.LatencyQuantile(0.99)))
			}
		}
		if campaigns == 0 {
			res.digest, total = digest, sum
		} else if diff := diffDigest(res.digest, digest); diff != "" {
			res.failed++
			res.check(false, "fleet: campaign %d differs from the first at the same seed: %s", campaigns, diff)
		}
		rates = append(rates, float64(sum.Offered)/hostS)
		slowest = append(slowest, slow)
		campaigns++
		res.markHeap()
	}
	goodput := float64(total.Good) / float64(total.Offered)
	res.check(goodput >= fleetGoodputFloor, "fleet: goodput %.4f below floor %.2f", goodput, fleetGoodputFloor)

	res.e2e["setup_s"] = median(setups)
	res.e2e["throughput"] = median(rates)
	res.e2e["p50_ms"] = obs.Quantile(cellMS, 0.5)
	res.e2e["p99_ms"] = median(slowest)
	res.e2e["quality"] = goodput
	res.e2e["accuracy"] = float64(total.Correct) / float64(total.Completed)
	res.name("fleet.sim_rps", res.e2e["throughput"], "1/s", len(rates))
	res.name("fleet.goodput", goodput, "frac", total.Offered)
	res.name("setup_s", res.e2e["setup_s"], "s", len(setups))
	res.name("RunClusterSim_ms.p50", res.e2e["p50_ms"], "ms", len(cellMS))

	if rec != nil {
		spans := rec.snapshot()
		self := selfTimes(spans)
		var inferNS, simSelf int64
		for _, s := range spans {
			switch s.name {
			case "RunClusterSim":
				simSelf += self[s.id]
			case "Infer":
				inferNS += s.dur()
			}
		}
		n := float64(campaigns)
		res.layer["nn.infer_s"] = float64(inferNS) / 1e9 / n
		res.layer["cluster.sim_self_s"] = float64(simSelf) / 1e9 / n
	}
	res.layer["cluster.retries"] = float64(total.Retries)
	res.layer["cluster.hedges"] = float64(total.Hedges)
	res.layer["cluster.stale_rejected"] = float64(total.StaleRejected)
	res.layer["cluster.resyncs"] = float64(total.Resyncs)
	res.layer["setup.program_s"] = cost.seconds / float64(len(setups))
	res.layer["setup.program_pulses"] = float64(cost.pulses) / float64(len(setups))
	return res
}

// addFleet sums the counters of m into sum.
func addFleet(sum *cluster.Metrics, m cluster.Metrics) {
	sum.Offered += m.Offered
	sum.Completed += m.Completed
	sum.Correct += m.Correct
	sum.Good += m.Good
	sum.Retries += m.Retries
	sum.Hedges += m.Hedges
	sum.StaleRejected += m.StaleRejected
	sum.Resyncs += m.Resyncs
}
