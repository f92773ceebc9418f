package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Service errors returned by Do.
var (
	// ErrShed means the bounded queue was full and the request was load-shed
	// on arrival.
	ErrShed = errors.New("serve: queue full, request shed")
	// ErrDeadline means the request missed its completion deadline.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrUnavailable means no replica was in rotation and no fallback path
	// was configured.
	ErrUnavailable = errors.New("serve: no replica in rotation")
	// ErrClosed means the service has shut down.
	ErrClosed = errors.New("serve: service closed")
)

// ServiceCounters is a snapshot of the live runtime's accounting.
type ServiceCounters struct {
	Served, Shed, Expired, Unavailable int64
	Retries, Hedges, Fallbacks, Recals int64
	// SuspectServed counts requests answered with a verify-failed (suspect)
	// vector because retries, hedges, or the deadline ran out — served
	// rather than failed, but flagged so operators can see how much of the
	// traffic got an unverified answer.
	SuspectServed int64
	// Batches counts multi-request coalesced dispatches; Coalesced counts
	// the requests they carried (so Coalesced/Batches is the realized batch
	// size). Single-request dispatches appear in neither.
	Batches, Coalesced int64
}

type request struct {
	x        tensor.Vector
	deadline time.Time
	done     chan result
	span     *obs.Span
}

type result struct {
	y   tensor.Vector
	err error
}

// Service is the real goroutine runtime: a bounded channel queue, a worker
// pool serving with wall-clock deadlines, hedging timers, a background
// canary prober, and a background recalibration worker. It exists to prove
// the machinery safe under true concurrency (the -race tests hammer it,
// including forward reads racing a reprogram); the published R2 tables come
// from the virtual-time simulator in sim.go, which drives the identical
// Policy/Health/Pipeline machinery deterministically.
type Service struct {
	pol      Policy
	replicas []*Replica

	fbMu     sync.Mutex
	fallback func(tensor.Vector) tensor.Vector

	queue   chan *request
	recalCh chan *Replica
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	rr      atomic.Uint64

	served, shed, expired, unavailable atomic.Int64
	retries, hedges, fallbacks, recals atomic.Int64
	suspectServed                      atomic.Int64
	batches, coalesced                 atomic.Int64
	// taken counts requests workers have taken off the queue: the arrival
	// signal that tells a test a request has reached a worker.
	taken atomic.Int64

	// clock is the single source every deadline-relevant timestamp reads
	// from: the wall clock in production, a Manual clock in deadline tests.
	// start anchors trace timestamps (seconds since service start).
	clock obs.Clock
	start time.Time

	// Live-runtime instruments; all volatile (wall-clock-fed), so they show
	// on /metrics but never in the deterministic stable dump. Nil when
	// observability is off — every use is a free nil-receiver no-op.
	tracer                          *obs.Tracer
	mServed, mShed, mExpired, mUnav *obs.Counter
	mRetries, mHedges, mFbacks      *obs.Counter
	mRecals, mSuspect               *obs.Counter
	mBatches, mCoalesced            *obs.Counter
	mLatency                        *obs.Histogram
}

// NewService starts the runtime with the given worker count. fallback, if
// non-nil and enabled by the policy, is the digital float path used when no
// replica is in rotation; it is serialized internally (golden nets cache
// layer state and are not reentrant).
func NewService(pol Policy, replicas []*Replica, fallback func(tensor.Vector) tensor.Vector, workers int) *Service {
	if workers <= 0 {
		workers = 2
	}
	if pol.QueueCap <= 0 {
		pol.QueueCap = 64
	}
	if pol.MaxAttempts <= 0 {
		pol.MaxAttempts = 1
	}
	s := &Service{
		pol:      pol,
		replicas: replicas,
		fallback: fallback,
		queue:    make(chan *request, pol.QueueCap),
		recalCh:  make(chan *Replica, len(replicas)),
		stop:     make(chan struct{}),
		clock:    obs.System,
	}
	s.start = s.clock.Now()
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if pol.Watchdog {
		s.wg.Add(2)
		go s.canaryLoop()
		go s.recalLoop()
	}
	return s
}

// SetClock injects the service's time source. Call before serving traffic;
// tests inject an obs.Manual clock for exact deadline semantics.
func (s *Service) SetClock(c obs.Clock) {
	if c == nil {
		c = obs.System
	}
	s.clock = c
	s.start = c.Now()
}

// SetObservability attaches a registry and tracer to the live runtime. All
// instruments are registered Volatile: the real service is wall-clock-fed,
// so its numbers belong on /metrics but not in the deterministic stable
// dump. Call before serving traffic. Either argument may be nil.
func (s *Service) SetObservability(reg *obs.Registry, tr *obs.Tracer) {
	s.tracer = tr
	s.mServed = reg.Counter("serve_live_served_total", "requests answered by the live runtime").Volatile()
	s.mShed = reg.Counter("serve_live_shed_total", "requests load-shed at a full queue").Volatile()
	s.mExpired = reg.Counter("serve_live_expired_total", "requests that missed their deadline").Volatile()
	s.mUnav = reg.Counter("serve_live_unavailable_total", "requests with no replica and no fallback").Volatile()
	s.mRetries = reg.Counter("serve_live_retries_total", "retry attempts").Volatile()
	s.mHedges = reg.Counter("serve_live_hedges_total", "hedged attempts dispatched").Volatile()
	s.mFbacks = reg.Counter("serve_live_fallbacks_total", "requests served by the digital fallback").Volatile()
	s.mRecals = reg.Counter("serve_live_recals_total", "recalibration passes").Volatile()
	s.mSuspect = reg.Counter("serve_suspect_served_total",
		"requests answered with a verify-failed suspect vector (out of attempts or time)").Volatile()
	s.mBatches = reg.Counter("serve_live_batches_total", "multi-request coalesced dispatches").Volatile()
	s.mCoalesced = reg.Counter("serve_live_coalesced_total", "requests served via coalesced dispatches").Volatile()
	s.mLatency = reg.Histogram("serve_live_latency_seconds",
		"wall-clock service latency of live requests (windowed)", 1024).Volatile()
}

// sinceStart maps a clock reading onto the trace timebase (seconds since
// service start).
func (s *Service) sinceStart(t time.Time) float64 { return t.Sub(s.start).Seconds() }

// Counters snapshots the runtime accounting.
func (s *Service) Counters() ServiceCounters {
	return ServiceCounters{
		Served: s.served.Load(), Shed: s.shed.Load(),
		Expired: s.expired.Load(), Unavailable: s.unavailable.Load(),
		Retries: s.retries.Load(), Hedges: s.hedges.Load(),
		Fallbacks: s.fallbacks.Load(), Recals: s.recals.Load(),
		SuspectServed: s.suspectServed.Load(),
		Batches:       s.batches.Load(), Coalesced: s.coalesced.Load(),
	}
}

// Do submits one inference and blocks for its result (or shedding/deadline
// error). Safe for concurrent use.
func (s *Service) Do(x tensor.Vector) (tensor.Vector, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	now := s.clock.Now()
	req := &request{
		x:        x,
		deadline: now.Add(time.Duration(s.pol.Deadline * float64(time.Second))),
		done:     make(chan result, 1),
		span:     s.tracer.Start("request", s.sinceStart(now)),
	}
	req.span.Stage("queue", s.sinceStart(now))
	select {
	case s.queue <- req:
	default:
		s.shed.Add(1)
		s.mShed.Inc()
		req.span.SetErr(ErrShed.Error())
		req.span.End(s.sinceStart(s.clock.Now()))
		return nil, ErrShed
	}
	// Re-check closed AFTER the enqueue. If this load still reads false,
	// the enqueue happened before Close's closed.Store (both are
	// sequentially consistent atomics), so it also happened before Close's
	// drain, which therefore answers the request if no worker does. If it
	// reads true, Close's one-shot drain may already have run without
	// seeing the request — so sweep the queue here; whoever pops a request
	// (worker, Close, or this sweep) is its sole answerer, so <-req.done
	// below can no longer block forever.
	if s.closed.Load() {
		s.drainQueue()
	}
	r := <-req.done
	if r.err != nil {
		req.span.SetErr(r.err.Error())
	}
	done := s.clock.Now()
	req.span.Stage("complete", s.sinceStart(done))
	req.span.End(s.sinceStart(done))
	s.mLatency.Observe(done.Sub(now).Seconds())
	return r.y, r.err
}

// Close drains the runtime: no new requests are accepted, background
// goroutines exit, and queued-but-unserved requests fail with ErrClosed.
func (s *Service) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.stop)
	s.wg.Wait()
	s.drainQueue()
}

// drainQueue answers every currently queued request with ErrClosed. Both
// Close and a Do that observed closed after its enqueue sweep with this;
// a request is answered exactly once because each is popped exactly once.
func (s *Service) drainQueue() {
	for {
		select {
		case req := <-s.queue:
			req.done <- result{err: ErrClosed}
		default:
			return
		}
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	batching := s.pol.BatchMax > 1
	var batch []*request
	if batching {
		batch = make([]*request, 0, s.pol.BatchMax)
	}
	for {
		select {
		case <-s.stop:
			return
		case req := <-s.queue:
			s.taken.Add(1)
			if batching {
				batch = s.gather(batch[:0], req)
				s.serveBatch(batch)
			} else {
				req.done <- s.serveOne(req)
			}
		}
	}
}

// gather coalesces up to Policy.BatchMax queued requests behind first.
// Whatever is already queued is taken immediately; if the block is still
// short and BatchWait allows, the worker waits for more arrivals on the
// service clock, with the wait budget carved from the head request's
// deadline (deadlines are arrival-ordered, so first is the block's
// earliest) — waiting never spends time that request needs. Every request
// gather returns is answered by serveBatch, including on shutdown: a stop
// signal merely cuts the wait short.
func (s *Service) gather(batch []*request, first *request) []*request {
	batch = append(batch, first)
	max := s.pol.BatchMax
	for len(batch) < max {
		select {
		case r := <-s.queue:
			s.taken.Add(1)
			batch = append(batch, r)
			continue
		default:
		}
		break
	}
	if len(batch) >= max || s.pol.BatchWait <= 0 {
		return batch
	}
	budget := time.Duration(s.pol.BatchWait * float64(time.Second))
	if slack := first.deadline.Sub(s.clock.Now()); slack < budget {
		budget = slack
	}
	if budget <= 0 {
		return batch
	}
	wait := s.clock.After(budget)
	for len(batch) < max {
		select {
		case r := <-s.queue:
			s.taken.Add(1)
			batch = append(batch, r)
		case <-wait:
			return batch
		case <-s.stop:
			return batch
		}
	}
	return batch
}

// serveBatch disposes one coalesced block. Requests whose deadline elapsed
// in the queue are dropped from the block before dispatch (counted
// expired, answered ErrDeadline — never served, never double-counted). A
// lone survivor takes the exact sequential path, so BatchMax=1 semantics
// also hold for every block that degenerates to one request. Larger
// blocks are served with one batched read on the picked replica; each
// member keeps its individual disposition — verified members complete,
// verify-failed members continue through the sequential retry/suspect
// machinery with the batched read counted as their first attempt, and
// with no replica in rotation every member takes its own fallback.
func (s *Service) serveBatch(batch []*request) {
	now := s.clock.Now()
	live := batch[:0]
	for _, req := range batch {
		if now.After(req.deadline) {
			s.expired.Add(1)
			s.mExpired.Inc()
			req.done <- result{err: ErrDeadline}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	if len(live) == 1 {
		live[0].done <- s.serveOne(live[0])
		return
	}
	primary := s.pick(nil)
	if primary == nil {
		for _, req := range live {
			req.done <- s.fallbackServe(req)
		}
		return
	}
	s.batches.Add(1)
	s.mBatches.Inc()
	s.coalesced.Add(int64(len(live)))
	s.mCoalesced.Add(int64(len(live)))
	xs := make([]tensor.Vector, len(live))
	dispatchAt := s.sinceStart(s.clock.Now())
	for i, req := range live {
		xs[i] = req.x
		req.span.Stage("dispatch", dispatchAt)
	}
	t0 := s.clock.Now()
	ys, oks := primary.InferBatch(xs, s.pol.VerifyReads)
	took := s.clock.Now().Sub(t0).Seconds()
	for i, req := range live {
		primary.Health.ObserveServe(took, !oks[i])
		if oks[i] {
			s.served.Add(1)
			s.mServed.Inc()
			req.done <- result{y: ys[i]}
			continue
		}
		req.done <- s.serveAfterBatchFail(req, ys[i])
	}
}

// serveAfterBatchFail continues a request whose batched read came back
// verify-failed, preserving the sequential per-request disposition: the
// batched read was attempt 0 and produced a suspect vector; remaining
// attempts retry with backoff through the normal loop (hedging and
// fallback included), and with no attempts left the suspect read is
// served — counted and tagged — rather than nothing.
func (s *Service) serveAfterBatchFail(req *request, suspect tensor.Vector) result {
	req.span.Stage("verify-read", s.sinceStart(s.clock.Now()))
	if s.pol.MaxAttempts > 1 {
		s.retries.Add(1)
		s.mRetries.Inc()
		backoff := s.pol.RetryBackoff
		if backoff > 0 {
			s.clock.Sleep(time.Duration(backoff * float64(time.Second)))
			backoff *= 2
		}
		return s.serveLoop(req, 1, backoff)
	}
	if suspect != nil {
		s.markSuspectServed(req)
		s.served.Add(1)
		s.mServed.Inc()
		return result{y: suspect}
	}
	s.expired.Add(1)
	s.mExpired.Inc()
	return result{err: ErrDeadline}
}

// pick chooses the next replica in rotation, healthy ones first, skipping
// those in avoid. Returns nil when every replica is quarantined.
func (s *Service) pick(avoid *Replica) *Replica {
	n := len(s.replicas)
	// Reduce in uint64 before converting: int(Add(1)) % n goes negative
	// once the counter maps to a negative int (uint64 wrap, or any count
	// past 2³¹ on 32-bit platforms) and would index out of range.
	start := int(s.rr.Add(1) % uint64(n))
	var degraded *Replica
	for i := 0; i < n; i++ {
		r := s.replicas[(start+i)%n]
		if r == avoid {
			continue
		}
		switch r.Health.State() {
		case Healthy:
			return r
		case Degraded:
			if degraded == nil {
				degraded = r
			}
		}
	}
	return degraded
}

// serveOne runs the full per-request policy: replica selection, verify
// reads, bounded retry with backoff, hedging, deadline, digital fallback.
func (s *Service) serveOne(req *request) result {
	return s.serveLoop(req, 0, s.pol.RetryBackoff)
}

// serveLoop is serveOne's attempt loop, entered at a later attempt (with
// the backoff already advanced) when an earlier attempt happened outside —
// a coalesced batched read that failed verify.
func (s *Service) serveLoop(req *request, attempt int, backoff float64) result {
	for ; attempt < s.pol.MaxAttempts; attempt++ {
		if s.clock.Now().After(req.deadline) {
			s.expired.Add(1)
			s.mExpired.Inc()
			return result{err: ErrDeadline}
		}
		primary := s.pick(nil)
		if primary == nil {
			return s.fallbackServe(req)
		}
		req.span.Stage("dispatch", s.sinceStart(s.clock.Now()))
		y, ok := s.attempt(primary, req)
		if ok {
			s.served.Add(1)
			s.mServed.Inc()
			return result{y: y}
		}
		req.span.Stage("verify-read", s.sinceStart(s.clock.Now()))
		if y == nil && s.clock.Now().After(req.deadline) {
			s.expired.Add(1)
			s.mExpired.Inc()
			return result{err: ErrDeadline}
		}
		// Suspected transient: back off and retry (doubling), unless this
		// was the last attempt — then serve the suspect read rather than
		// nothing.
		if attempt+1 < s.pol.MaxAttempts {
			s.retries.Add(1)
			s.mRetries.Inc()
			if backoff > 0 {
				s.clock.Sleep(time.Duration(backoff * float64(time.Second)))
				backoff *= 2
			}
			continue
		}
		if y != nil {
			// Out of attempts: serve the suspect read rather than nothing,
			// but account for it — this answer never passed a verify read.
			s.markSuspectServed(req)
			s.served.Add(1)
			s.mServed.Inc()
			return result{y: y}
		}
	}
	s.expired.Add(1)
	s.mExpired.Inc()
	return result{err: ErrDeadline}
}

// markSuspectServed accounts for a request answered with a verify-failed
// suspect vector (attempts or deadline exhausted) and tags its trace span.
func (s *Service) markSuspectServed(req *request) {
	s.suspectServed.Add(1)
	s.mSuspect.Inc()
	req.span.Stage("suspect-served", s.sinceStart(s.clock.Now()))
}

// attempt runs one (possibly hedged) inference attempt. ok=false with a
// non-nil vector flags a suspected transient.
func (s *Service) attempt(primary *Replica, req *request) (tensor.Vector, bool) {
	type attemptRes struct {
		r    *Replica
		y    tensor.Vector
		ok   bool
		took time.Duration
	}
	run := func(r *Replica, ch chan attemptRes) {
		t0 := s.clock.Now()
		y, ok := r.Infer(req.x, s.pol.VerifyReads)
		ch <- attemptRes{r: r, y: y, ok: ok, took: s.clock.Now().Sub(t0)}
	}
	observe := func(a attemptRes) {
		a.r.Health.ObserveServe(a.took.Seconds(), !a.ok)
	}

	ch := make(chan attemptRes, 2)
	go run(primary, ch)
	inFlight := 1

	// Both timers run on the injected clock: with a Manual clock they fire
	// on virtual advances, so deadline/hedge tests are exact and burn no
	// wall time. Abandoned After channels simply fire into the void.
	var hedgeC <-chan time.Time
	if s.pol.Hedge && len(s.replicas) > 1 {
		d := primary.Health.HedgeDelay(s.pol.HedgeQuantile, s.pol.HedgeMin, s.pol.Deadline)
		hedgeC = s.clock.After(time.Duration(d * float64(time.Second)))
	}
	deadlineC := s.clock.After(req.deadline.Sub(s.clock.Now()))

	var suspect tensor.Vector
	for {
		select {
		case a := <-ch:
			observe(a)
			inFlight--
			if a.ok {
				return a.y, true
			}
			suspect = a.y
			if inFlight == 0 {
				return suspect, false
			}
		case <-hedgeC:
			hedgeC = nil
			if second := s.pick(primary); second != nil {
				s.hedges.Add(1)
				s.mHedges.Inc()
				req.span.Stage("hedge", s.sinceStart(s.clock.Now()))
				go run(second, ch)
				inFlight++
			}
		case <-deadlineC:
			// Leave stragglers to finish into the buffered channel; their
			// health observations are lost, which is acceptable for the
			// wall-clock runtime. A suspect read in hand is served rather
			// than dropped — counted, and tagged on the trace, so the
			// unverified answer is visible instead of silently passing as ok.
			if suspect != nil {
				s.markSuspectServed(req)
			}
			return suspect, suspect != nil
		}
	}
}

func (s *Service) fallbackServe(req *request) result {
	if !s.pol.Fallback || s.fallback == nil {
		s.unavailable.Add(1)
		s.mUnav.Inc()
		return result{err: ErrUnavailable}
	}
	req.span.Stage("fallback", s.sinceStart(s.clock.Now()))
	s.fbMu.Lock()
	y := s.fallback(req.x)
	s.fbMu.Unlock()
	s.fallbacks.Add(1)
	s.mFbacks.Inc()
	s.served.Add(1)
	s.mServed.Inc()
	return result{y: y}
}

// canaryLoop periodically replays golden vectors on every in-rotation
// replica and feeds the breaker; replicas it quarantines are handed to the
// recalibration worker.
func (s *Service) canaryLoop() {
	defer s.wg.Done()
	period := time.Duration(s.pol.CanaryEvery * float64(time.Second))
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			for _, r := range s.replicas {
				if r.Health.State() == Quarantined {
					continue
				}
				div := r.Canary()
				if r.Health.ObserveCanary(div) == Quarantined {
					select {
					case s.recalCh <- r:
					default: // already enqueued
					}
				}
			}
		}
	}
}

// recalLoop reprograms quarantined replicas from golden weights in the
// background and re-admits the ones whose fresh canary passes.
func (s *Service) recalLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case r := <-s.recalCh:
			for try := 0; try <= s.pol.RecalMaxRetries; try++ {
				_, div := r.Recalibrate()
				s.recals.Add(1)
				s.mRecals.Inc()
				if div <= s.pol.ReadmitThresh {
					r.Health.Readmit(div)
					break
				}
			}
		}
	}
}
