package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crossbar"
	"repro/internal/obs"
	"repro/internal/rngutil"
	"repro/internal/serve"
)

const (
	liveReplicas = 2
	// liveCallers closed-loop clients each wait for their reply before
	// sending the next request. An open loop at a fixed rate was tried and
	// dropped: on 2 cores its p99 spread over 2x between runs and the
	// generator itself ran milliseconds late. 8 callers already saturate
	// the two replicas on 2 cores (the same requests/s as 16), with half
	// the queueing: 16 callers only lengthened the queue, and their p99
	// spread by a third between runs against under a tenth for 8.
	liveCallers = 8
	liveWarmup  = 300 * time.Millisecond
	// liveSlice splits the measured window: throughput and latency
	// percentiles are taken per slice and the medians over slices reported,
	// so a stall of the shared host spoils one slice rather than the run.
	liveSlice = time.Second
	// liveDeadline is the per-request deadline in seconds.
	liveDeadline = 0.05
	// liveAgreeFloor is the lowest acceptable share of requests whose
	// served top-1 matches the golden network's.
	liveAgreeFloor = 0.95
)

// liveSetup trains the golden model and programs the fault-free PCM
// replicas.
func liveSetup(seed uint64, cost *programCost) (*goldenModel, []programmed) {
	g := digitsGolden(seed)
	rng := rngutil.New(seed).Child("live-replicas")
	var reps []programmed
	for r := 0; r < liveReplicas; r++ {
		reps = append(reps, program(g, g.train.X[:8], nil, rng.Child(fmt.Sprintf("replica%d", r)), cost))
	}
	return g, reps
}

// callerStats is one closed-loop caller's tally.
type callerStats struct {
	attempted, served, failed, agree int
	// doneAt is each request's completion time since the phase started,
	// latMS its latency; both in request order.
	doneAt []time.Duration
	latMS  []float64
}

// runLive drives the goroutine serve.Service with liveCallers closed-loop
// callers on the wall clock.
func runLive(o opts, rec *recorder) *result {
	res := newResult()
	var cost programCost
	var g *goldenModel
	var reps []programmed
	setups := repeatSetup(res, func() { g, reps = liveSetup(o.seed, &cost) })

	pol := serve.PolicyFull()
	pol.BatchMax = 8
	// PolicyFull's 8 ms deadline expired up to 1.5% of requests whenever the
	// shared 2-core host stalled the process for a few milliseconds; a
	// benchmark request should not fail for that.
	pol.Deadline = liveDeadline
	var arrays []*crossbar.Array
	var replicas []*serve.Replica
	for i, p := range reps {
		arrays = append(arrays, p.arrays...)
		var pipe serve.Pipeline = p.pipe
		if rec != nil {
			pipe = &tracedPipeline{rec: rec, pipe: p.pipe}
		}
		replicas = append(replicas, serve.NewReplica(i, pipe, pol))
	}
	macs0 := readMACs(arrays)
	var svcStart int64
	if rec != nil {
		svcStart = rec.now()
	}
	svc := serve.NewService(pol, replicas, g.fallback, runtime.GOMAXPROCS(0))

	var reqID atomic.Int64
	drive := func(phase string, d time.Duration) []callerStats {
		stats := make([]callerStats, liveCallers)
		start := time.Now()
		end := start.Add(d)
		var wg sync.WaitGroup
		for c := 0; c < liveCallers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				st := &stats[c]
				pick := rngutil.New(o.seed).Child(fmt.Sprintf("%s-caller%d", phase, c))
				for time.Now().Before(end) {
					idx := pick.Intn(len(g.test.X))
					// Every request gets its own input vector: hedged
					// attempts may still read it after Do returns, and
					// traced dispatches are attributed by it.
					x := g.test.X[idx].Clone()
					var id, sid, t0 int64
					if rec != nil {
						id, sid, t0 = reqID.Add(1), rec.reserve(), rec.now()
						rec.open(x, id, sid)
					}
					began := time.Now()
					y, err := svc.Do(x)
					st.latMS = append(st.latMS, float64(time.Since(began).Nanoseconds())/1e6)
					st.doneAt = append(st.doneAt, time.Since(start))
					if rec != nil {
						rec.close(x)
						rec.finish(sid, 0, "Do", t0, rec.now(), id)
					}
					st.attempted++
					if err != nil {
						st.failed++
						continue
					}
					st.served++
					if y.ArgMax() == g.top1[idx] {
						st.agree++
					}
				}
			}(c)
		}
		wg.Wait()
		return stats
	}
	warm := drive("warmup", liveWarmup)
	window := time.Duration(o.seconds * float64(time.Second))
	stats := drive("measure", window)
	svc.Close()
	res.markHeap()
	var svcEnd int64
	if rec != nil {
		svcEnd = rec.now()
	}

	var all, measured callerStats
	for _, set := range [][]callerStats{warm, stats} {
		for _, st := range set {
			all.attempted += st.attempted
			all.served += st.served
		}
	}
	slices := max(int(window/liveSlice), 1)
	sliceLat := make([][]float64, slices)
	for _, st := range stats {
		measured.attempted += st.attempted
		measured.served += st.served
		measured.failed += st.failed
		measured.agree += st.agree
		for i, d := range st.doneAt {
			if k := int(d / liveSlice); k < slices {
				sliceLat[k] = append(sliceLat[k], st.latMS[i])
			}
		}
	}
	var rates, p50s, p99s []float64
	for _, lat := range sliceLat {
		rates = append(rates, float64(len(lat))/liveSlice.Seconds())
		p50s = append(p50s, obs.Quantile(lat, 0.5))
		p99s = append(p99s, obs.Quantile(lat, 0.99))
	}
	c := svc.Counters()
	res.check(c.Served+c.Shed+c.Expired+c.Unavailable == int64(all.attempted),
		"live: served %d + shed %d + expired %d + unavailable %d != attempted %d",
		c.Served, c.Shed, c.Expired, c.Unavailable, all.attempted)
	res.check(c.Served == int64(all.served), "live: service counted %d served, callers got %d answers", c.Served, all.served)
	agree := float64(measured.agree) / float64(measured.attempted)
	res.check(agree >= liveAgreeFloor, "live: agreement %.4f below floor %.2f", agree, liveAgreeFloor)
	res.attempted, res.failed = measured.attempted, measured.failed

	// Requests still in flight when the window closed complete after it
	// and fall in no slice; every slice counts completions (served or not).
	rps, p50, p99 := median(rates), median(p50s), median(p99s)
	res.e2e["setup_s"] = median(setups)
	res.e2e["throughput"] = rps
	res.e2e["p50_ms"], res.e2e["p99_ms"] = p50, p99
	res.e2e["quality"] = agree
	res.e2e["accuracy"] = float64(measured.agree) / float64(measured.served)
	res.name("live.rps", rps, "1/s", slices)
	res.name("live.p50_ms", p50, "ms", measured.attempted)
	res.name("live.p99_ms", p99, "ms", measured.attempted)
	res.name("live.agree", agree, "frac", measured.attempted)
	res.name("setup_s", res.e2e["setup_s"], "s", len(setups))
	res.info = append(res.info, "live counters "+fields(c))

	if rec != nil {
		liveLayers(res, rec, c, arrays, macs0, (svcEnd-svcStart)*liveReplicas, all.attempted)
	}
	res.layer["setup.program_s"] = cost.seconds / float64(len(setups))
	res.layer["setup.program_pulses"] = float64(cost.pulses) / float64(len(setups))
	return res
}

// liveLayers derives the live per-layer metrics from the traced run.
// replicaNS is the service's wall time times its replica count.
func liveLayers(res *result, rec *recorder, c serve.ServiceCounters,
	arrays []*crossbar.Array, macs0, replicaNS int64, requests int) {
	spans := rec.snapshot()
	self := selfTimes(spans)
	var wait, batch, canary []float64
	var busy, readNS int64
	for _, s := range spans {
		switch {
		case s.name == "Do":
			wait = append(wait, float64(self[s.id])/1e6)
		case s.req >= 0:
			// request-level copy of a dispatch; counted once below
		case s.name == "InferBatch":
			batch = append(batch, float64(s.dur())/1e6)
			busy += s.dur()
			readNS += s.dur()
		case s.name == "Infer":
			busy += s.dur()
			readNS += s.dur()
		case s.name == "CanaryDivergence":
			canary = append(canary, float64(s.dur())/1e6)
			busy += s.dur()
			readNS += s.dur()
		case s.name == "Recalibrate":
			busy += s.dur()
		}
	}
	macs := readMACs(arrays) - macs0
	res.layer["serve.queue_wait_ms.p50"] = obs.Quantile(wait, 0.5)
	res.layer["serve.queue_wait_ms.p99"] = obs.Quantile(wait, 0.99)
	if c.Batches > 0 {
		res.layer["serve.batch_size.mean"] = float64(c.Coalesced) / float64(c.Batches)
	}
	res.layer["serve.retries"] = float64(c.Retries)
	res.layer["serve.hedges"] = float64(c.Hedges)
	res.layer["serve.expired"] = float64(c.Expired)
	res.layer["serve.fallbacks"] = float64(c.Fallbacks)
	res.layer["serve.suspect_served"] = float64(c.SuspectServed)
	res.layer["nn.infer_batch_ms.p50"] = obs.Quantile(batch, 0.5)
	res.layer["nn.infer_batch_ms.p99"] = obs.Quantile(batch, 0.99)
	res.layer["nn.busy_frac"] = float64(busy) / float64(replicaNS)
	res.layer["crossbar.macs_per_req"] = float64(macs) / float64(requests)
	res.layer["crossbar.ns_per_mac"] = float64(readNS) / float64(macs)
	res.layer["serve.canary_ms"] = obs.Quantile(canary, 0.5)
}
