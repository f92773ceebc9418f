// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the public APIs of serve, analog, nn, crossbar, faults
// and cluster, checks the outputs, and prints every metric by name:
//
//	bash perfbench/run.sh --workload live --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics of BENCHMARK.json; with --trace 1 the workload runs
// once untraced and then, for a tenth of the time, with every layer entry
// point wrapped, and the metrics are the per-layer ones, including the
// tracing overhead (untraced over traced throughput, minus 1). Spans are
// kept in memory and written to .bench_build/spans-<workload>-<seed>.tsv.
//
// Workloads (the reasons are also in BENCHMARK.json):
//
//   - live: the goroutine serve.Service on the wall clock in front of two
//     fault-free PCM serve.MLPPipeline replicas of a digitally trained
//     256→256→10 digits MLP, PolicyFull with BatchMax 8, driven by 8
//     closed-loop callers. The read path; programming happens in set-up.
//   - heal: serve.RunSim, the virtual-time self-healing simulator, at 600
//     requests/s for 3 virtual seconds on three replicas of the same model
//     with R2's level-2 fault engines (replica 0 is the lemon). Canary
//     triggered recalibration writes beside the reads.
//   - train: Tiki-Taka analog SGD, analog.RunDigits on an analog.Session
//     with the RRAM soft-bounds device, default digits, hidden 256, two
//     epochs. serve and cluster are bypassed.
//   - fleet: cluster.RunClusterSim over R6's scenarios, levels and policies
//     with 6 nodes and 8 shards ×2, on shard pipelines programmed in set-up.
//
// The end-to-end metrics are named alike on every workload; each workload
// reports its own figure under each name (endToEnd in metrics.go lists
// them, for example throughput is live.rps on live and train.samples_per_s
// on train). Each per-layer metric names the end-to-end metric it should
// move on the workloads that exercise its layer and reads 0 elsewhere
// (perLayer in metrics.go).
//
// Choices made so that runs are steady and no operation fails:
//
//   - heal's and fleet's models, programmed hardware, fault draws and
//     simulator timing draws are fixed; the seed draws which inputs the
//     requests carry and in which order. With seed-drawn faults the host
//     time of one RunSim ranged from 2.0 to 3.7 s, and fleet's goodput
//     followed its small model's accuracy from 0.70 to 0.86. heal also runs
//     PolicyFull with RecalMaxRetries 0: with two retries, whether the
//     lemon's first recalibration passed its canary decided between 2 and
//     8.5 s.
//   - Host-time figures are medians: over 1 s slices (live), RunSim calls
//     (heal), training runs (train) or campaigns (fleet).
//   - live uses a 50 ms deadline instead of PolicyFull's 8 ms, which
//     expired up to 1.5% of requests whenever the shared host stalled.
//   - set-up is repeated at least three times and for at least 2 s per run
//     (train: once per training run) and the median reported.
//   - live runs 8 closed-loop callers rather than 16: 8 already reach the
//     same requests/s, and 16 only queued longer, with a p99 that spread
//     by a third between runs.
//
// Outputs are checked against invariants on every run: serve.Metrics.Check
// and cluster.Metrics.Check pass; live's served plus failed requests equal
// the attempted ones and agree with Service.Counters; repeated simulations
// and training runs at one seed reproduce their first run exactly; the
// traced run reproduces the untraced run's digest; and live agreement,
// heal accuracy, train test accuracy and fleet goodput stay above the
// floors defined next to each workload. Any failure is printed to standard
// error, counted as a failed operation and makes the exit code 1.
//
// Notes:
//
//   - The simulators are not validated against hardware, so no error figure
//     is given for their simulated statistics.
//   - Time spent in rngutil and par cannot be split out from outside the
//     program; that split waits for tracing inside the program.
//   - Runs use GOMAXPROCS = nproc (recorded on the first output line with
//     the par worker count, the Go version and the seed), unlike BENCH.json's
//     single-CPU kernel baseline.
package main
