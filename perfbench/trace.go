package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// span is one call across a layer boundary. Times are nanoseconds since the
// recorder was created; parent 0 marks a root span and req -1 a span that
// belongs to no single request.
type span struct {
	id, parent int64
	name       string
	start, end int64
	req        int64
}

func (s span) dur() int64 { return s.end - s.start }

// inflight ties a live request's private input vector to its Do span, so the
// pipeline wrapper can attribute a dispatch to every request it carried.
type inflight struct{ req, spanID int64 }

// recorder keeps every span in memory until the run ends. A nil *recorder
// is the untraced run: nothing is wrapped and nothing is recorded.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
	live  map[*float64]inflight
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), live: map[*float64]inflight{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span and returns its id.
func (r *recorder) add(parent int64, name string, start, end, req int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, span{id: r.next, parent: parent, name: name, start: start, end: end, req: req})
	return r.next
}

// reserve hands out a span id before the span ends, so children recorded
// while it is open can name it as their parent.
func (r *recorder) reserve() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) finish(id, parent int64, name string, start, end, req int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, start: start, end: end, req: req})
}

// open marks x as the input of in-flight request req under Do span spanID.
func (r *recorder) open(x tensor.Vector, req, spanID int64) {
	r.mu.Lock()
	r.live[&x[0]] = inflight{req: req, spanID: spanID}
	r.mu.Unlock()
}

func (r *recorder) close(x tensor.Vector) {
	r.mu.Lock()
	delete(r.live, &x[0])
	r.mu.Unlock()
}

func (r *recorder) owner(x tensor.Vector) (inflight, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.live[&x[0]]
	return f, ok
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as tab-separated lines (id, parent, name, start ns,
// end ns, request id) and returns how many it wrote.
func (r *recorder) write(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	spans := r.snapshot()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\treq")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}

// selfTimes maps each span id to its duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		covered, reach := int64(0), s.start
		for _, c := range cs {
			lo, hi := max(c.start, reach), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// tracedPipeline records a span for every call into a replica's pipeline.
// It implements serve.BatchPipeline, so a serve.Replica still takes the
// batched read path it takes on the bare pipeline.
type tracedPipeline struct {
	rec  *recorder
	pipe serve.BatchPipeline
	// parent, when set, names the span that every call is a child of (the
	// single-threaded simulators' RunSim or RunClusterSim span).
	parent *int64

	mu     sync.Mutex
	recals []serve.RecalStats
}

// span records one call-level span (request id -1, child of the simulator
// span when there is one) and, for each live request the call carried, a
// request-level copy under that request's Do span.
func (t *tracedPipeline) span(name string, start int64, xs ...tensor.Vector) {
	end := t.rec.now()
	for _, x := range xs {
		if f, ok := t.rec.owner(x); ok {
			t.rec.add(f.spanID, name, start, end, f.req)
		}
	}
	parent := int64(0)
	if t.parent != nil {
		parent = *t.parent
	}
	t.rec.add(parent, name, start, end, -1)
}

func (t *tracedPipeline) Infer(x tensor.Vector, verify bool) (tensor.Vector, bool) {
	start := t.rec.now()
	y, ok := t.pipe.Infer(x, verify)
	t.span("Infer", start, x)
	return y, ok
}

func (t *tracedPipeline) InferBatch(xs []tensor.Vector, verify bool) ([]tensor.Vector, []bool) {
	start := t.rec.now()
	ys, oks := t.pipe.InferBatch(xs, verify)
	t.span("InferBatch", start, xs...)
	return ys, oks
}

func (t *tracedPipeline) CanaryDivergence() float64 {
	start := t.rec.now()
	d := t.pipe.CanaryDivergence()
	t.span("CanaryDivergence", start)
	return d
}

func (t *tracedPipeline) Recalibrate() serve.RecalStats {
	start := t.rec.now()
	st := t.pipe.Recalibrate()
	t.span("Recalibrate", start)
	t.mu.Lock()
	t.recals = append(t.recals, st)
	t.mu.Unlock()
	return st
}

var _ serve.BatchPipeline = (*tracedPipeline)(nil)

// tracedMat records a span for every call into one layer's weight storage.
// wrapMat returns a variant that also forwards nn.BatchMat and
// nn.OrderPinned exactly when the wrapped value has them, so networks take
// the same batched or pinned-order path they take on the bare value.
type tracedMat struct {
	rec    *recorder
	m      nn.Mat
	parent *int64
}

func (t *tracedMat) call(name string, start int64) {
	t.rec.add(*t.parent, name, start, t.rec.now(), -1)
}

func (t *tracedMat) Rows() int { return t.m.Rows() }
func (t *tracedMat) Cols() int { return t.m.Cols() }

func (t *tracedMat) Forward(x tensor.Vector) tensor.Vector {
	start := t.rec.now()
	y := t.m.Forward(x)
	t.call("Forward", start)
	return y
}

func (t *tracedMat) Backward(d tensor.Vector) tensor.Vector {
	start := t.rec.now()
	y := t.m.Backward(d)
	t.call("Backward", start)
	return y
}

func (t *tracedMat) Update(scale float64, u, v tensor.Vector) {
	start := t.rec.now()
	t.m.Update(scale, u, v)
	t.call("Update", start)
}

func (t *tracedMat) forwardBatch(xs []tensor.Vector) []tensor.Vector {
	start := t.rec.now()
	ys := t.m.(nn.BatchMat).ForwardBatch(xs)
	t.call("ForwardBatch", start)
	return ys
}

func (t *tracedMat) pinned() bool { return t.m.(nn.OrderPinned).OpOrderPinned() }

type tracedBatchMat struct{ *tracedMat }

func (t tracedBatchMat) ForwardBatch(xs []tensor.Vector) []tensor.Vector { return t.forwardBatch(xs) }

type tracedPinnedMat struct{ *tracedMat }

func (t tracedPinnedMat) OpOrderPinned() bool { return t.pinned() }

type tracedBatchPinnedMat struct{ *tracedMat }

func (t tracedBatchPinnedMat) ForwardBatch(xs []tensor.Vector) []tensor.Vector {
	return t.forwardBatch(xs)
}

func (t tracedBatchPinnedMat) OpOrderPinned() bool { return t.pinned() }

func wrapMat(rec *recorder, m nn.Mat, parent *int64) nn.Mat {
	t := &tracedMat{rec: rec, m: m, parent: parent}
	_, batch := m.(nn.BatchMat)
	_, pinned := m.(nn.OrderPinned)
	switch {
	case batch && pinned:
		return tracedBatchPinnedMat{t}
	case batch:
		return tracedBatchMat{t}
	case pinned:
		return tracedPinnedMat{t}
	}
	return t
}

// arrayCounts sums the op counters of arrays.
func arrayCounts(arrays []*crossbar.Array) crossbar.OpCounts {
	var c crossbar.OpCounts
	for _, a := range arrays {
		c.Forwards += a.Counts.Forwards
		c.Backwards += a.Counts.Backwards
		c.Updates += a.Counts.Updates
		c.Pulses += a.Counts.Pulses
		c.DigitalMACs += a.Counts.DigitalMACs
	}
	return c
}

// readMACs is the multiply-accumulates that forward and backward reads
// issued on arrays (updates excluded).
func readMACs(arrays []*crossbar.Array) int64 {
	var n int64
	for _, a := range arrays {
		n += (a.Counts.Forwards + a.Counts.Backwards) * int64(a.Rows()) * int64(a.Cols())
	}
	return n
}
