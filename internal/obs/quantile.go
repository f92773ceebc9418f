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

// Window keeps the most recent samples of a stream in a ring and answers
// nearest-rank quantiles over them — the hedging window of the serve
// replicas and the cluster router, and the retained set of a Histogram.
// Capacity 0 keeps every sample. A Window is not safe for concurrent use;
// callers that share one hold their own lock.
type Window struct {
	capacity int
	samples  []float64
	next     int // ring cursor once full
}

// NewWindow returns a window retaining the last capacity samples (every
// sample when capacity is 0).
func NewWindow(capacity int) Window {
	w := Window{capacity: capacity}
	if capacity > 0 {
		w.samples = make([]float64, 0, capacity)
	}
	return w
}

// Add folds one sample in, evicting the oldest once the window is full.
func (w *Window) Add(v float64) {
	if w.capacity <= 0 || len(w.samples) < w.capacity {
		w.samples = append(w.samples, v)
		return
	}
	w.samples[w.next] = v
	w.next = (w.next + 1) % w.capacity
}

// Quantile reports the nearest-rank q-th quantile of the retained samples,
// 0 when empty.
func (w *Window) Quantile(q float64) float64 {
	return Quantile(w.samples, q)
}
