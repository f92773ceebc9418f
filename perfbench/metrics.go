package main

// e2eMetric is an end-to-end metric every workload reports. meaning names
// the figure each workload reports under it; BENCHMARK.json carries the
// name, unit, direction and regression bound.
type e2eMetric struct {
	name, unit, better string
	bound              float64
	meaning            map[string]string
}

// layerMetric is a per-layer metric of the traced run. moves names, for each
// workload that exercises the layer, the end-to-end metric it should move;
// on other workloads it reads 0.
type layerMetric struct {
	name, unit, better string
	moves              map[string]string
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, map[string]string{
		"live":  "data, golden training and programming 2 replicas (median of repeated set-ups)",
		"heal":  "data, golden training and programming 3 fault-injected replicas (median of repeated set-ups)",
		"train": "data, session factory with programming and symmetrization (median over runs)",
		"fleet": "data, golden training and programming 8 shard pipelines (median of repeated set-ups)",
	}},
	{"peak_heap_mb", "MB", "lower", 0.1, map[string]string{
		"live": "peak live Go heap", "heal": "peak live Go heap",
		"train": "peak live Go heap", "fleet": "peak live Go heap",
	}},
	{"throughput", "1/s", "higher", 0.25, map[string]string{
		"live":  "live.rps: requests completed per wall second (median over 1 s slices)",
		"heal":  "heal.sim_rps: simulated requests offered per host second of RunSim (median over calls)",
		"train": "train.samples_per_s: SGD samples per host second of the timed epochs",
		"fleet": "fleet.sim_rps: simulated requests offered per host second of RunClusterSim (median over campaigns)",
	}},
	{"p50_ms", "ms", "lower", 0.25, map[string]string{
		"live":  "live.p50_ms: Service.Do latency seen by the callers (median over 1 s slices)",
		"heal":  "simulated request latency p50, virtual time (median over the first 3 RunSim calls)",
		"train": "median host time of one epoch",
		"fleet": "median host time of one RunClusterSim call (one cell)",
	}},
	{"p99_ms", "ms", "lower", 0.25, map[string]string{
		"live":  "live.p99_ms: Service.Do latency seen by the callers (median over 1 s slices)",
		"heal":  "simulated request latency p99, virtual time (median over the first 3 RunSim calls)",
		"train": "slowest epoch's host time (too few epochs for a p99)",
		"fleet": "slowest RunClusterSim call of a campaign (median over campaigns)",
	}},
	{"quality", "frac", "higher", 0.1, map[string]string{
		"live":  "live.agree: attempted requests whose served top-1 equals the golden's",
		"heal":  "heal.goodput: simulated on-time correct answers per offered request",
		"train": "train.test_acc: test accuracy after training",
		"fleet": "fleet.goodput: Good / Offered summed over all cells",
	}},
	{"accuracy", "frac", "higher", 0.1, map[string]string{
		"live":  "served requests whose top-1 equals the golden's",
		"heal":  "heal.accuracy: correct share of simulated completed requests",
		"train": "train accuracy after training",
		"fleet": "correct share of completed requests summed over all cells",
	}},
}

var perLayer = []layerMetric{
	{"serve.queue_wait_ms.p50", "ms", "lower", map[string]string{"live": "p50_ms"}},
	{"serve.queue_wait_ms.p99", "ms", "lower", map[string]string{"live": "p99_ms"}},
	{"serve.batch_size.mean", "count", "higher", map[string]string{"live": "throughput"}},
	{"serve.retries", "count", "lower", map[string]string{"live": "throughput, quality"}},
	{"serve.hedges", "count", "lower", map[string]string{"live": "throughput, quality"}},
	{"serve.expired", "count", "lower", map[string]string{"live": "throughput, quality"}},
	{"serve.fallbacks", "count", "lower", map[string]string{"live": "throughput, quality"}},
	{"serve.suspect_served", "count", "lower", map[string]string{"live": "throughput, quality"}},
	{"nn.infer_batch_ms.p50", "ms", "lower", map[string]string{"live": "throughput, p50_ms"}},
	{"nn.infer_batch_ms.p99", "ms", "lower", map[string]string{"live": "throughput, p50_ms"}},
	{"nn.busy_frac", "frac", "higher", map[string]string{"live": "throughput"}},
	{"crossbar.macs_per_req", "count", "lower", map[string]string{"live": "throughput"}},
	{"crossbar.ns_per_mac", "ns", "lower", map[string]string{"live": "throughput"}},
	{"serve.canary_ms", "ms", "lower", map[string]string{"live": "p99_ms"}},

	{"crossbar.recal_s", "s", "lower", map[string]string{"heal": "throughput"}},
	{"crossbar.program_pulses", "count", "lower", map[string]string{"heal": "throughput"}},
	{"crossbar.ns_per_pulse", "ns", "lower", map[string]string{"heal": "throughput"}},
	{"faults.remapped", "count", "lower", map[string]string{"heal": "throughput, quality"}},
	{"faults.detect_reads", "count", "lower", map[string]string{"heal": "throughput, quality"}},
	{"nn.infer_s", "s", "lower", map[string]string{"heal": "throughput", "fleet": "throughput"}},
	{"serve.sim_self_s", "s", "lower", map[string]string{"heal": "throughput"}},
	{"serve.sim.recals", "count", "lower", map[string]string{"heal": "quality"}},
	{"serve.sim.retries", "count", "lower", map[string]string{"heal": "quality"}},
	{"serve.sim.hedges", "count", "lower", map[string]string{"heal": "quality"}},
	{"serve.sim.quarantines", "count", "lower", map[string]string{"heal": "quality"}},
	{"serve.sim.readmits", "count", "higher", map[string]string{"heal": "quality"}},

	{"analog.update_us.p50", "us", "lower", map[string]string{"train": "throughput"}},
	{"analog.forward_us.p50", "us", "lower", map[string]string{"train": "throughput"}},
	{"analog.backward_us.p50", "us", "lower", map[string]string{"train": "throughput"}},
	{"analog.update_share", "frac", "lower", map[string]string{"train": "throughput"}},
	{"crossbar.pulses_per_update", "count", "lower", map[string]string{"train": "throughput"}},
	{"crossbar.update_ns_per_pulse", "ns", "lower", map[string]string{"train": "throughput"}},
	{"nn.train_self_share", "frac", "lower", map[string]string{"train": "throughput"}},
	{"setup.session_s", "s", "lower", map[string]string{"train": "setup_s"}},

	{"cluster.sim_self_s", "s", "lower", map[string]string{"fleet": "throughput"}},
	{"cluster.retries", "count", "lower", map[string]string{"fleet": "quality"}},
	{"cluster.hedges", "count", "lower", map[string]string{"fleet": "quality"}},
	{"cluster.stale_rejected", "count", "lower", map[string]string{"fleet": "quality"}},
	{"cluster.resyncs", "count", "lower", map[string]string{"fleet": "quality"}},

	{"setup.program_s", "s", "lower", map[string]string{"live": "setup_s", "heal": "setup_s", "fleet": "setup_s"}},
	{"setup.program_pulses", "count", "lower", map[string]string{"live": "setup_s", "heal": "setup_s", "fleet": "setup_s"}},

	{"trace.overhead", "frac", "lower", map[string]string{
		"live": "(untraced/traced throughput - 1)", "heal": "(untraced/traced throughput - 1)",
		"train": "(untraced/traced throughput - 1)", "fleet": "(untraced/traced throughput - 1)",
	}},
}
