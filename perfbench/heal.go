package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/crossbar"
	"repro/internal/faults"
	"repro/internal/rngutil"
	"repro/internal/serve"
)

const (
	healReplicas = 3
	healLevel    = 2.0
	// healHardwareSeed fixes the golden model, the programmed replicas,
	// their fault engines and the simulator's arrival and latency draws;
	// --seed draws which inputs the requests carry, in which order. When
	// the seed drew the faults and arrivals too, RunSim's host time ranged
	// from 2.0 to 3.7 s between seeds: how many devices are stuck when a
	// replica is recalibrated decides what the recalibration costs.
	healHardwareSeed = 1
	// healSims is how many RunSim calls (each with its own traffic) feed
	// the simulated statistics; more run while the time lasts.
	healSims = 3
	// healAccuracyFloor is the lowest acceptable correct share of simulated
	// completed requests.
	healAccuracyFloor = 0.8
)

// healReplica is one programmed replica's post-programming snapshot: every
// measured RunSim rebuilds the replica from it, so each faces identical
// hardware and resumes its fault schedule from the same stream position.
type healReplica struct {
	base   *faults.Engine
	arrays []crossbar.ArrayState
	engine []byte
	rng    uint64
}

type healSetupResult struct {
	g    *goldenModel
	reps []healReplica
	reqs []serve.SimRequest
}

// healSetup trains the golden model and programs healReplicas PCM replicas,
// each under its own level-2 fault engine (replica 0 is the lemon).
func healSetup(seed uint64, cost *programCost) (healSetupResult, error) {
	s := healSetupResult{g: digitsGolden(seed)}
	for i := range s.g.test.X {
		s.reqs = append(s.reqs, serve.SimRequest{X: s.g.test.X[i], Want: s.g.test.Y[i]})
	}
	for r := 0; r < healReplicas; r++ {
		hr := healReplica{
			base: faults.NewEngine(healPlan(healLevel, r == 0), rngutil.New(seed+7919+31*uint64(r))),
			rng:  seed + 101*uint64(r) + 13,
		}
		eng := hr.base.Clone()
		p := program(s.g, s.g.train.X[:8], eng.Attach, rngutil.New(hr.rng), cost)
		blob, err := eng.ExportState()
		if err != nil {
			return s, fmt.Errorf("heal: export fault engine: %w", err)
		}
		hr.arrays, hr.engine = p.pipe.ExportArrayStates(), blob
		s.reps = append(s.reps, hr)
	}
	return s, nil
}

// runHeal drives serve.RunSim, the virtual-time self-healing simulator,
// repeatedly on freshly restored replicas until the run's time is spent.
func runHeal(o opts, rec *recorder) *result {
	res := newResult()
	var cost programCost
	var s healSetupResult
	var err error
	setups := repeatSetup(res, func() { s, err = healSetup(healHardwareSeed, &cost) })
	if err != nil {
		res.check(false, "%v", err)
		return res
	}
	pol := serve.PolicyFull()
	pol.BatchMax = 8
	// A replica whose first recalibration fails its canary is abandoned at
	// once. With PolicyFull's two retries, whether the lemon passed decided
	// between 2 and 8.5 s of host time per RunSim, flipping with the
	// traffic seed.
	pol.RecalMaxRetries = 0
	cfg := serve.DefaultCampaignConfig(healHardwareSeed, false)

	var simS, rates, p50s, p99s []float64
	var sum serve.Metrics
	var traced []*tracedPipeline
	var simSpan int64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for k := 0; k < healSims || time.Now().Before(deadline); k++ {
		var replicas []*serve.Replica
		for r, hr := range s.reps {
			eng := hr.base.Clone()
			pipe, err := serve.NewMLPPipelineFromState(s.g.net, s.g.train.X[:8], serve.DefaultMLPPipelineConfig(),
				hr.arrays, eng.Attach, rngutil.New(hr.rng))
			if err == nil {
				err = eng.ImportState(hr.engine)
			}
			if err != nil {
				res.check(false, "heal: restore replica %d: %v", r, err)
				return res
			}
			var bp serve.Pipeline = pipe
			if rec != nil {
				tp := &tracedPipeline{rec: rec, pipe: pipe, parent: &simSpan}
				traced = append(traced, tp)
				bp = tp
			}
			replicas = append(replicas, serve.NewReplica(r, bp, pol))
		}
		simCfg := serve.SimConfig{
			Policy: pol, Lat: cfg.Lat, Duration: cfg.Duration, Rate: cfg.Rate,
			Requests: shuffled(s.reqs, rngutil.New(o.seed).Child(fmt.Sprintf("requests%d", k))),
			Fallback: s.g.fallback, RNG: rngutil.New(healHardwareSeed + 104729),
		}
		var t0 int64
		if rec != nil {
			simSpan, t0 = rec.reserve(), rec.now()
		}
		start := time.Now()
		got := serve.RunSim(simCfg, replicas)
		took := time.Since(start).Seconds()
		if rec != nil {
			rec.finish(simSpan, 0, "RunSim", t0, rec.now(), -1)
		}
		res.markHeap()
		runtime.KeepAlive(replicas)
		res.attempted++
		if err := got.Check(); err != nil {
			res.failed++
			res.check(false, "heal: %v", err)
		}
		simS = append(simS, took)
		rates = append(rates, float64(got.Offered)/took)
		if k >= healSims {
			continue
		}
		// The first healSims runs always happen, so their statistics are
		// a pure function of the seed.
		res.digest = append(res.digest, healDigest(k, got))
		p50s = append(p50s, got.LatencyQuantile(0.5)*1e3)
		p99s = append(p99s, got.LatencyQuantile(0.99)*1e3)
		sum.Offered += got.Offered
		sum.Completed += got.Completed
		sum.Correct += got.Correct
		sum.Good += got.Good
		sum.Retries += got.Retries
		sum.Hedges += got.Hedges
		sum.Recals += got.Recals
		sum.Quarantines += got.Quarantines
		sum.Readmits += got.Readmits
	}
	res.check(sum.Accuracy() >= healAccuracyFloor, "heal: accuracy %.4f below floor %.2f", sum.Accuracy(), healAccuracyFloor)

	res.e2e["setup_s"] = median(setups)
	res.e2e["throughput"] = median(rates)
	res.e2e["p50_ms"] = median(p50s)
	res.e2e["p99_ms"] = median(p99s)
	res.e2e["quality"] = sum.Goodput()
	res.e2e["accuracy"] = sum.Accuracy()
	res.name("heal.sim_rps", res.e2e["throughput"], "1/s", len(rates))
	res.name("heal.goodput", sum.Goodput(), "frac", sum.Offered)
	res.name("heal.accuracy", sum.Accuracy(), "frac", sum.Completed)
	res.name("setup_s", res.e2e["setup_s"], "s", len(setups))
	res.name("heal.sim_p50_ms", res.e2e["p50_ms"], "ms", sum.Completed)
	res.name("heal.sim_p99_ms", res.e2e["p99_ms"], "ms", sum.Completed)
	res.info = append(res.info, fmt.Sprintf("RunSim host seconds: median %.4f over %d calls", median(simS), len(simS)))

	if rec != nil {
		healLayers(res, rec, traced, len(simS))
	}
	res.layer["setup.program_s"] = cost.seconds / float64(len(setups))
	res.layer["setup.program_pulses"] = float64(cost.pulses) / float64(len(setups))
	n := float64(healSims)
	res.layer["serve.sim.recals"] = float64(sum.Recals) / n
	res.layer["serve.sim.retries"] = float64(sum.Retries) / n
	res.layer["serve.sim.hedges"] = float64(sum.Hedges) / n
	res.layer["serve.sim.quarantines"] = float64(sum.Quarantines) / n
	res.layer["serve.sim.readmits"] = float64(sum.Readmits) / n
	return res
}

// healDigest renders every statistic of simulated run k.
func healDigest(k int, m serve.Metrics) string {
	return fmt.Sprintf("heal run %d %s p50=%v p90=%v p99=%v", k, fields(m),
		m.LatencyQuantile(0.5), m.LatencyQuantile(0.9), m.LatencyQuantile(0.99))
}

// healLayers derives the heal per-layer metrics, per RunSim, from the
// traced run.
func healLayers(res *result, rec *recorder, traced []*tracedPipeline, runs int) {
	spans := rec.snapshot()
	self := selfTimes(spans)
	var recalNS, inferNS, simSelf int64
	for _, s := range spans {
		switch s.name {
		case "RunSim":
			simSelf += self[s.id]
		case "Recalibrate":
			recalNS += s.dur()
		case "Infer", "InferBatch", "CanaryDivergence":
			inferNS += s.dur()
		}
	}
	var st serve.RecalStats
	for _, tp := range traced {
		for _, r := range tp.recals {
			st.Pulses += r.Pulses
			st.DetectReads += r.DetectReads
			st.Remapped += r.Remapped
		}
	}
	n := float64(runs)
	res.layer["crossbar.recal_s"] = float64(recalNS) / 1e9 / n
	res.layer["crossbar.program_pulses"] = float64(st.Pulses) / n
	if st.Pulses > 0 {
		res.layer["crossbar.ns_per_pulse"] = float64(recalNS) / float64(st.Pulses)
	}
	res.layer["faults.remapped"] = float64(st.Remapped) / n
	res.layer["faults.detect_reads"] = float64(st.DetectReads) / n
	res.layer["nn.infer_s"] = float64(inferNS) / 1e9 / n
	res.layer["serve.sim_self_s"] = float64(simSelf) / 1e9 / n
}

// shuffled returns a copy of reqs in an order drawn from rng.
func shuffled(reqs []serve.SimRequest, rng *rngutil.Source) []serve.SimRequest {
	out := append([]serve.SimRequest(nil), reqs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
