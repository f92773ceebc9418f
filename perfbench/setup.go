package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// setupMin is the least time a run spends repeating its set-up; small
// set-ups repeat more often, so their median is not one noisy sample.
const setupMin = 2 * time.Second

// repeatSetup runs setup at least three times and for at least setupMin,
// marking the heap after each, and returns each repetition's seconds.
func repeatSetup(res *result, setup func()) []float64 {
	var times []float64
	start := time.Now()
	for len(times) < 3 || time.Since(start) < setupMin {
		t0 := time.Now()
		setup()
		times = append(times, time.Since(t0).Seconds())
		res.markHeap()
	}
	return times
}

// goldenModel is a digitally trained MLP plus the data it was trained on.
type goldenModel struct {
	net         *nn.MLP
	train, test *dataset.Classification
	// top1 is the golden network's class for each test input.
	top1 []int
}

// trainGolden trains an MLP of the given sizes digitally on dcfg digits.
func trainGolden(dcfg dataset.DigitsConfig, hidden, epochs int, seed uint64) *goldenModel {
	rng := rngutil.New(seed)
	ds := dataset.Digits(dcfg, rng.Child("data"))
	train, test := ds.Split(0.75)
	net := nn.NewMLP([]int{dcfg.Dim, hidden, dcfg.Classes}, nn.TanhAct, nn.SoftmaxAct,
		nn.DenseFactory(rng.Child("weights")))
	for e := 0; e < epochs; e++ {
		for i := range train.X {
			net.TrainStep(train.X[i], train.Y[i], 0.05)
		}
	}
	g := &goldenModel{net: net, train: train, test: test}
	for _, x := range test.X {
		g.top1 = append(g.top1, net.Predict(x))
	}
	return g
}

// digitsGolden is the model live and heal serve: a 256→256→10 digits MLP,
// the 256² array scale of the paper's PCM inference chips.
func digitsGolden(seed uint64) *goldenModel {
	dcfg := dataset.DefaultDigits()
	dcfg.Dim = 256
	return trainGolden(dcfg, 256, 3, seed)
}

// fleetGolden is R6's own 16→12→6 shard model (cluster campaign defaults).
func fleetGolden(seed uint64) *goldenModel {
	return trainGolden(dataset.DigitsConfig{Classes: 6, Dim: 16, PerClass: 80, Noise: 0.5, Separation: 1}, 12, 8, seed)
}

// fallback is the digital float path the serving layers fall back to.
func (g *goldenModel) fallback(x tensor.Vector) tensor.Vector { return g.net.Forward(x).Clone() }

// programmed is one analog replica built by serve.NewMLPPipeline, with the
// physical arrays handed to its attach callback.
type programmed struct {
	pipe   *serve.MLPPipeline
	arrays []*crossbar.Array
}

// programCost accumulates the host time and write pulses spent inside
// serve.NewMLPPipeline.
type programCost struct {
	seconds float64
	pulses  int64
}

// program builds one replica of golden, passing every physical array to
// attach (when non-nil) before programming, as fault engines need.
func program(g *goldenModel, canary []tensor.Vector, attach func(*crossbar.Array), rng *rngutil.Source, cost *programCost) programmed {
	var p programmed
	capture := func(a *crossbar.Array) {
		p.arrays = append(p.arrays, a)
		if attach != nil {
			attach(a)
		}
	}
	start := time.Now()
	p.pipe = serve.NewMLPPipeline(g.net, canary, serve.DefaultMLPPipelineConfig(), capture, rng)
	cost.seconds += time.Since(start).Seconds()
	cost.pulses += arrayCounts(p.arrays).Pulses
	return p
}

// healPlan is R2's per-replica fault plan at a fault level; replica 0, the
// lemon, gets an order of magnitude more progressive damage. The figures
// are those of serve's campaign, which keeps its plans unexported.
func healPlan(level float64, lemon bool) faults.Plan {
	p := faults.Plan{
		StuckPerOp:      0.004 * level,
		StuckValueStd:   0.6,
		ReadUpset:       0.004 * level,
		UpsetMag:        1.8,
		WriteFail:       0.04 * level,
		LineOpenPerOp:   0.0003 * level,
		DriftBurstEvery: 150,
		DriftBurstDt:    6 * level,
	}
	if lemon {
		p.StuckPerOp = 0.08 * level
		p.StuckValueStd = 0.8
		p.LineOpenPerOp = 0.012 * level
	}
	return p
}

// fleetPlan is R6's node-fault plan for one scenario and level, with the
// figures of cluster's campaign, which keeps its plans unexported.
func fleetPlan(name string, level float64, cfg cluster.CampaignConfig) faults.NodePlan {
	switch {
	case level <= 0 || name == "none":
		return faults.NodePlan{}
	case name == "crash":
		return faults.NodePlan{CrashesPerNode: 0.5 * level, RestartAfter: 0.20 * cfg.Duration, MsgLoss: 0.005 * level}
	case name == "slow":
		return faults.NodePlan{
			SlowNodes: 1 + int(level/2), SlowFactor: 8 * level,
			SlowEvery: cfg.Duration / 3, SlowFor: cfg.Duration / 6, MsgLoss: 0.005 * level,
		}
	case name == "partition":
		return faults.NodePlan{
			PartitionAt: 0.30 * cfg.Duration, PartitionFor: 0.25 * cfg.Duration * level,
			MinorityNodes: max(cfg.Nodes/2-1, 1), MsgLoss: 0.01 * level, MsgDelayMult: 1 + 0.5*level,
		}
	}
	panic(fmt.Sprintf("perfbench: unknown fleet scenario %q", name))
}
