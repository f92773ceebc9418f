package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"

	"repro/internal/par"
)

// opts are the benchmark's command-line inputs.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
}

// named is an end-to-end figure under the name the workload gives it, with
// the sample count behind it.
type named struct {
	name    string
	value   float64
	unit    string
	samples int
}

// result is what one workload run measured and checked.
type result struct {
	e2e       map[string]float64
	named     []named
	layer     map[string]float64
	attempted int
	failed    int
	errs      []error
	// digest holds every simulated statistic, which must repeat exactly
	// for a seed; info lines are printed but vary from run to run.
	digest []string
	info   []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Errorf(format, args...))
	}
}

func (r *result) name(name string, value float64, unit string, samples int) {
	r.named = append(r.named, named{name, value, unit, samples})
}

// workloads maps each workload name to its runner. A nil recorder is the
// untraced run; a non-nil one wraps every layer entry point it can reach.
var workloads = map[string]func(opts, *recorder) *result{
	"live":  runLive,
	"heal":  runHeal,
	"train": runTrain,
	"fleet": runFleet,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: live, heal, train or fleet")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o := opts{workload: *workload, seed: *seed, seconds: *seconds}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d par.workers=%d go=%s\n",
		o.workload, o.seed, o.seconds, *trace, runtime.GOMAXPROCS(0), par.Workers(), runtime.Version())

	res := fn(o, nil)
	report(stdout, o.workload, res)

	type metric struct {
		name, unit string
		value      float64
	}
	var out []metric
	for _, m := range endToEnd {
		out = append(out, metric{m.name, m.unit, res.e2e[m.name]})
	}
	if *trace == 1 {
		// The traced pass measures a tenth of the time: every call's span
		// is kept in memory, and fleet alone makes ~150k calls a second.
		short := o
		short.seconds /= 10
		rec := newRecorder()
		traced := fn(short, rec)
		traced.layer["trace.overhead"] = res.e2e["throughput"]/traced.e2e["throughput"] - 1
		reportLayers(stdout, o.workload, traced)
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.tsv", o.workload, o.seed))
		n, err := rec.write(path)
		if err != nil {
			return 1, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", n, path)
		if d := diffDigest(res.digest, traced.digest); d != "" {
			traced.errs = append(traced.errs, fmt.Errorf("traced run changed the simulated output: %s", d))
		}
		res.attempted += traced.attempted
		res.failed += traced.failed
		res.errs = append(res.errs, traced.errs...)
		out = out[:0]
		for _, m := range perLayer {
			out = append(out, metric{m.name, m.unit, traced.layer[m.name]})
		}
	}

	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]map[string]any{}}
	for _, m := range out {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			res.check(false, "metric %s is %v", m.name, m.value)
			m.value = 0
		}
		result.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, err := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", err)
	}
	result.Correct = len(res.errs) == 0
	if !result.Correct && result.Failed == 0 {
		result.Failed = 1
	}
	line, err := json.Marshal(result)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !result.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// report prints the workload's named end-to-end figures and its digest.
func report(w io.Writer, workload string, r *result) {
	for _, m := range r.named {
		fmt.Fprintf(w, "  %-24s %14.6g %-6s (n=%d)\n", m.name, m.value, m.unit, m.samples)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  e2e %-20s %14.6g %-6s  %s\n", m.name, r.e2e[m.name], m.unit, m.meaning[workload])
	}
	for _, d := range r.info {
		fmt.Fprintln(w, "  info", d)
	}
	for _, d := range r.digest {
		fmt.Fprintln(w, "  digest", d)
	}
}

// reportLayers prints the per-layer metrics of a traced run, each with the
// end-to-end metric it should move.
func reportLayers(w io.Writer, workload string, r *result) {
	for _, m := range perLayer {
		moves := "(not exercised by this workload)"
		if mv, ok := m.moves[workload]; ok {
			moves = "moves " + mv
		}
		fmt.Fprintf(w, "  layer %-28s %14.6g %-6s %s\n", m.name, r.layer[m.name], m.unit, moves)
	}
}

// diffDigest reports the first line where two digests differ ("" if none).
func diffDigest(a, b []string) string {
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return fmt.Sprintf("untraced %q, traced %q", x, y)
		}
	}
	return ""
}

// markHeap collects garbage and raises the run's peak live heap to what
// is still live. Workloads call it at the end of each set-up and of each
// timed call, outside the timed regions, so the peak reflects the program's
// state at those points rather than when the collector happened to run.
func (r *result) markHeap() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if mb := float64(s[0].Value.Uint64()) / (1 << 20); mb > r.e2e["peak_heap_mb"] {
		r.e2e["peak_heap_mb"] = mb
	}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fields renders the exported fields of a struct as "Name=value" pairs.
func fields(v any) string {
	b, _ := json.Marshal(v) // plain structs of numbers and strings always marshal
	s := strings.NewReplacer("{", "", "}", "", "\"", "", ":", "=").Replace(string(b))
	return strings.ReplaceAll(s, ",", " ")
}
