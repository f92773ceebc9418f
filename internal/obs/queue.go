package obs

// Queue is the discrete-event simulators' agenda: a binary min-heap of
// events keyed by (time, push sequence). Push assigns the sequence, so
// events due at the same instant pop in the order they were pushed, and
// the order is total — any correct heap pops the identical sequence. The
// key lives inline in the heap slice and refers to its payload by slot in
// a reused slab, so sifting moves 24 bytes and a steady-state Push
// allocates nothing.
type Queue[E any] struct {
	keys []queueKey
	slab []E
	free []int
	seq  int64
}

type queueKey struct {
	t    float64
	seq  int64
	slot int
}

func (a *queueKey) before(b *queueKey) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// Len reports how many events are pending.
func (q *Queue[E]) Len() int { return len(q.keys) }

// Push schedules ev at virtual time t.
func (q *Queue[E]) Push(t float64, ev E) {
	var slot int
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = ev
	} else {
		slot = len(q.slab)
		q.slab = append(q.slab, ev)
	}
	q.seq++
	q.keys = append(q.keys, queueKey{t: t, seq: q.seq, slot: slot})
	h := q.keys
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// Pop removes and returns the earliest pending event and its time. The
// queue must not be empty.
func (q *Queue[E]) Pop() (float64, E) {
	h := q.keys
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.keys = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	ev := q.slab[top.slot]
	var zero E
	q.slab[top.slot] = zero // drop the payload's references for the GC
	q.free = append(q.free, top.slot)
	return top.t, ev
}
