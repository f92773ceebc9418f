package obs

import (
	"math"
	"sort"
)

// NearestRank returns the q-th quantile of the ascending-sorted sample set
// by the nearest-rank definition: the smallest element whose cumulative
// probability is at least q, i.e. sorted[ceil(q·n)-1]. Unlike the
// floor-truncated index int(q·(n-1)) it never rounds the rank down, so
// p99 over a small window picks the observed tail sample instead of a
// cheaper neighbor — the bias this helper exists to remove (it is the
// single quantile implementation shared by the hedging window, the
// campaign tables, and histogram summaries).
//
// Edge cases: an empty set reports 0; q <= 0 reports the minimum; q >= 1
// the maximum.
func NearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return sorted[k]
}

// Quantile is NearestRank over an unsorted sample set: it sorts a copy,
// leaving the input untouched.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return NearestRank(s, q)
}

// Window keeps the most recent samples of a stream and answers
// nearest-rank quantiles over them — the hedging window of the serve
// replicas and the cluster router, and the retained set of a Histogram.
// A bounded window keeps its samples in sorted order as they arrive (a
// binary search plus a shift of at most capacity elements per Add), so a
// quantile is one index lookup. Capacity 0 keeps every sample with an O(1)
// Add and sorts lazily, caching the sorted copy until the next Add. A
// Window is not safe for concurrent use; callers that share one hold their
// own lock.
type Window struct {
	capacity int
	// samples holds the stream in arrival order: the ring of the last
	// capacity samples (next is its cursor once full), or every sample when
	// unbounded.
	samples []float64
	next    int
	// sorted is the retained multiset in ascending order — maintained on
	// every Add when bounded, a lazily rebuilt cache (valid while fresh)
	// when unbounded.
	sorted []float64
	fresh  bool
}

// NewWindow returns a window retaining the last capacity samples (every
// sample when capacity is 0).
func NewWindow(capacity int) Window {
	w := Window{capacity: capacity}
	if capacity > 0 {
		w.samples = make([]float64, 0, capacity)
		w.sorted = make([]float64, 0, capacity)
	}
	return w
}

// Add folds one sample in, evicting the oldest once the window is full.
func (w *Window) Add(v float64) {
	if w.capacity <= 0 {
		w.samples = append(w.samples, v)
		w.fresh = false
		return
	}
	if len(w.samples) < w.capacity {
		w.samples = append(w.samples, v)
		w.sorted = append(w.sorted, v)
		w.place(len(w.sorted)-1, v)
		return
	}
	old := w.samples[w.next]
	w.samples[w.next] = v
	w.next = (w.next + 1) % w.capacity
	w.place(w.indexOf(old), v)
}

// place overwrites sorted[r] with v and moves v to its ordered position,
// shifting only the elements between the two slots.
func (w *Window) place(r int, v float64) {
	s := w.sorted
	if r > 0 && floatLess(v, s[r-1]) {
		k := upperBound(s[:r], v)
		copy(s[k+1:r+1], s[k:r])
		s[k] = v
		return
	}
	k := r + upperBound(s[r+1:], v)
	copy(s[r:k], s[r+1:k+1])
	s[k] = v
}

// indexOf locates the evicted sample v in sorted. Equal samples sit in
// arrival order (place puts a new sample after its equals), so the oldest
// retained copy of v — the one leaving — is the first of its run, and the
// sorted multiset stays bit-identical to the ring's, signed zeros included.
func (w *Window) indexOf(v float64) int {
	s := w.sorted
	return sort.Search(len(s), func(i int) bool { return !floatLess(s[i], v) })
}

// upperBound is the first index of the ascending s whose element orders
// after v.
func upperBound(s []float64, v float64) int {
	return sort.Search(len(s), func(i int) bool { return floatLess(v, s[i]) })
}

// floatLess is sort.Float64s' order: ascending, NaNs first.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// sortedSamples returns the retained samples in ascending order. The slice
// is the window's own: read it before the next Add and do not modify it.
func (w *Window) sortedSamples() []float64 {
	if w.capacity <= 0 && !w.fresh {
		w.sorted = append(w.sorted[:0], w.samples...)
		sort.Float64s(w.sorted)
		w.fresh = true
	}
	return w.sorted
}

// Quantile reports the nearest-rank q-th quantile of the retained samples,
// 0 when empty.
func (w *Window) Quantile(q float64) float64 {
	return NearestRank(w.sortedSamples(), q)
}
