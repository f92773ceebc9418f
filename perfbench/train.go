package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/analog"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rngutil"
)

const (
	trainEpochs = 2
	// trainAccFloor is the lowest acceptable test accuracy after training.
	trainAccFloor = 0.8
)

// trainRun is one timed analog.RunDigits call.
type trainRun struct {
	res      analog.TrainResult
	setupS   float64 // start of the call to the end of the last factory call
	sessionS float64 // time inside the session factory
	epochS   []float64
	trainS   float64 // first epoch start to last epoch end
	pulses   int64   // device pulses issued during the epochs
	windowLo int64   // recorder time of the epochs' start (traced runs)
	windowHi int64   // recorder time of the epochs' end (traced runs)
	spanID   int64
}

// trainOnce runs Tiki-Taka SGD once on an RRAM session: set-up (data, the
// session factory's programming and symmetrization) and trainEpochs epochs.
func trainOnce(cfg analog.ExperimentConfig, rec *recorder, res *result) trainRun {
	var tr trainRun
	start := time.Now()
	sess := analog.NewSession(analog.DefaultOptions(crossbar.RRAM(), analog.TikiTaka), rngutil.New(cfg.Seed).Child("session"))
	inner := sess.Factory()
	var epochStart time.Time
	var pulses0 int64
	if rec != nil {
		tr.spanID = rec.reserve()
	}
	factory := func(rows, cols int) nn.Mat {
		t0 := time.Now()
		m := inner(rows, cols)
		epochStart = time.Now()
		tr.sessionS += epochStart.Sub(t0).Seconds()
		pulses0 = arrayCounts(sess.Arrays()).Pulses
		if rec != nil {
			tr.windowLo = rec.now()
			return wrapMat(rec, m, &tr.spanID)
		}
		return m
	}
	last := time.Time{}
	hook := func(int) {
		now := time.Now()
		if last.IsZero() {
			last = epochStart
		}
		tr.epochS = append(tr.epochS, now.Sub(last).Seconds())
		last = now
		tr.pulses = arrayCounts(sess.Arrays()).Pulses - pulses0
		if rec != nil {
			tr.windowHi = rec.now()
		}
	}
	tr.res = analog.RunDigits(factory, cfg, hook)
	res.markHeap()
	runtime.KeepAlive(sess)
	tr.setupS = epochStart.Sub(start).Seconds()
	tr.trainS = last.Sub(epochStart).Seconds()
	if rec != nil {
		rec.finish(tr.spanID, 0, "RunDigits.epochs", tr.windowLo, tr.windowHi, -1)
	}
	return tr
}

// runTrain repeats Tiki-Taka training from scratch until the run's time is
// spent; every repetition must reproduce the first exactly.
func runTrain(o opts, rec *recorder) *result {
	res := newResult()
	cfg := analog.ExperimentConfig{
		Hidden: []int{256}, Epochs: trainEpochs, LR: 0.05, Seed: o.seed,
		Data: dataset.DefaultDigits(), TrainFrac: 0.8,
	}
	samples := trainEpochs * int(float64(cfg.Data.Classes*cfg.Data.PerClass)*cfg.TrainFrac)

	var runs []trainRun
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(runs) < 3 || time.Now().Before(deadline) {
		tr := trainOnce(cfg, rec, res)
		res.attempted++
		d := trainDigest(tr.res)
		if len(runs) == 0 {
			res.digest = d
		} else if diff := diffDigest(res.digest, d); diff != "" {
			res.failed++
			res.check(false, "train: run %d differs from the first at the same seed: %s", len(runs), diff)
		}
		runs = append(runs, tr)
	}
	first := runs[0].res
	res.check(first.TestAccuracy >= trainAccFloor, "train: test accuracy %.4f below floor %.2f", first.TestAccuracy, trainAccFloor)

	var setups, rates, epochs, sessions []float64
	for _, tr := range runs {
		setups = append(setups, tr.setupS)
		sessions = append(sessions, tr.sessionS)
		rates = append(rates, float64(samples)/tr.trainS)
		for _, e := range tr.epochS {
			epochs = append(epochs, e*1e3)
		}
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["throughput"] = median(rates)
	res.e2e["p50_ms"] = obs.Quantile(epochs, 0.5)
	res.e2e["p99_ms"] = obs.Quantile(epochs, 1)
	res.e2e["quality"] = first.TestAccuracy
	res.e2e["accuracy"] = first.TrainAccuracy
	res.name("train.samples_per_s", res.e2e["throughput"], "1/s", len(runs))
	res.name("train.test_acc", first.TestAccuracy, "frac", 1)
	res.name("setup_s", res.e2e["setup_s"], "s", len(setups))
	res.name("epoch_ms.p50", res.e2e["p50_ms"], "ms", len(epochs))

	res.layer["setup.session_s"] = median(sessions)
	if rec != nil {
		trainLayers(res, rec, runs)
	}
	return res
}

// trainDigest renders the epoch losses and accuracies of one training run.
func trainDigest(r analog.TrainResult) []string {
	d := []string{fmt.Sprintf("train test_acc=%v train_acc=%v", r.TestAccuracy, r.TrainAccuracy)}
	for e, l := range r.EpochLoss {
		d = append(d, fmt.Sprintf("train epoch %d loss=%v", e, l))
	}
	return d
}

// trainLayers derives the train per-layer metrics from the traced runs,
// counting only Mat calls inside the timed epochs.
func trainLayers(res *result, rec *recorder, runs []trainRun) {
	spans := rec.snapshot()
	self := selfTimes(spans)
	window := map[int64]trainRun{}
	for _, tr := range runs {
		window[tr.spanID] = tr
	}
	durs := map[string][]float64{}
	var updateNS, epochNS, selfNS, pulses, updates int64
	for _, tr := range runs {
		epochNS += tr.windowHi - tr.windowLo
		selfNS += self[tr.spanID]
		pulses += tr.pulses
	}
	for _, s := range spans {
		tr, ok := window[s.parent]
		if !ok || s.start < tr.windowLo || s.end > tr.windowHi {
			continue
		}
		durs[s.name] = append(durs[s.name], float64(s.dur())/1e3)
		if s.name == "Update" {
			updateNS += s.dur()
			updates++
		}
	}
	res.layer["analog.update_us.p50"] = obs.Quantile(durs["Update"], 0.5)
	res.layer["analog.forward_us.p50"] = obs.Quantile(durs["Forward"], 0.5)
	res.layer["analog.backward_us.p50"] = obs.Quantile(durs["Backward"], 0.5)
	res.layer["analog.update_share"] = float64(updateNS) / float64(epochNS)
	if updates > 0 {
		res.layer["crossbar.pulses_per_update"] = float64(pulses) / float64(updates)
	}
	if pulses > 0 {
		res.layer["crossbar.update_ns_per_pulse"] = float64(updateNS) / float64(pulses)
	}
	res.layer["nn.train_self_share"] = float64(selfNS) / float64(epochNS)
}
