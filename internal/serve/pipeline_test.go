package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// biasFreeMLP is an untrained in→hidden→out tanh network without bias
// columns, so an all-zero input reads an all-zero output (the relL2
// want = 0 path).
func biasFreeMLP(in, hidden, out int, seed uint64) *nn.MLP {
	f := nn.DenseFactory(rngutil.New(seed))
	return &nn.MLP{Layers: []*nn.DenseLayer{
		nn.NewDenseLayer(in, hidden, nn.TanhAct, false, f),
		nn.NewDenseLayer(hidden, out, nn.TanhAct, false, f),
	}}
}

// pureTwins programs the same golden network twice from one seed: once
// pure, and once with crossbar.NopHook on every array, which changes no
// number but makes the pipeline impure, so its verify read is really
// simulated.
func pureTwins(tb testing.TB, golden *nn.MLP, seed uint64) (pure, twin *MLPPipeline) {
	cfg := DefaultMLPPipelineConfig()
	pure = NewMLPPipeline(golden, nil, cfg, nil, rngutil.New(seed))
	twin = NewMLPPipeline(golden, nil, cfg, func(a *crossbar.Array) { a.SetFaultHook(crossbar.NopHook{}) }, rngutil.New(seed))
	if !pure.Pure() || twin.Pure() {
		tb.Fatalf("Pure() = %v/%v, want true/false", pure.Pure(), twin.Pure())
	}
	return pure, twin
}

// TestPureVerifyMatchesReread pins the skipped verify read: a pure
// pipeline, which reuses its first read as the verify read and only
// charges the second, must be indistinguishable from a twin that really
// reads twice — bit-identical outputs, the same verdicts (a NaN input
// fails verify on both), and the same Forwards and DigitalMACs on every
// array — through Infer and through InferBatch blocks of 1 and 5.
func TestPureVerifyMatchesReread(t *testing.T) {
	const in = 12
	pure, twin := pureTwins(t, biasFreeMLP(in, 10, 4, 5), 3)
	rng := rngutil.New(9)
	normal := make(tensor.Vector, in)
	for j := range normal {
		normal[j] = rng.Uniform(-1, 1)
	}
	nan := normal.Clone()
	nan[3] = math.NaN()
	inputs := []struct {
		name string
		x    tensor.Vector
		ok   bool
	}{
		{"normal", normal, true},
		{"zero", make(tensor.Vector, in), true},
		{"nan", nan, false},
	}

	same := func(stage string, yp, yt tensor.Vector) {
		t.Helper()
		if len(yp) != len(yt) {
			t.Fatalf("%s: output lengths %d/%d", stage, len(yp), len(yt))
		}
		for i := range yp {
			if math.Float64bits(yp[i]) != math.Float64bits(yt[i]) {
				t.Fatalf("%s: outputs differ at %d: %v vs %v", stage, i, yp, yt)
			}
		}
	}
	sameCounts := func(stage string) {
		t.Helper()
		for i := range pure.arrays {
			cp, ct := pure.arrays[i].Arr.Counts, twin.arrays[i].Arr.Counts
			if cp.Forwards != ct.Forwards || cp.DigitalMACs != ct.DigitalMACs {
				t.Fatalf("%s: array %d Forwards/DigitalMACs %d/%d, re-reading twin %d/%d",
					stage, i, cp.Forwards, cp.DigitalMACs, ct.Forwards, ct.DigitalMACs)
			}
		}
	}

	sameCounts("programmed")
	for _, c := range inputs {
		yp, okp := pure.Infer(c.x, true)
		yt, okt := twin.Infer(c.x, true)
		stage := "Infer " + c.name
		same(stage, yp, yt)
		if okp != c.ok || okt != c.ok {
			t.Fatalf("%s: ok %v/%v, want %v", stage, okp, okt, c.ok)
		}
		sameCounts(stage)
	}
	for _, n := range []int{1, 5} {
		for k := range inputs {
			xs := make([]tensor.Vector, n)
			want := make([]bool, n)
			for i := range xs {
				c := inputs[(k+i)%len(inputs)]
				xs[i], want[i] = c.x, c.ok
			}
			ysp, oksp := pure.InferBatch(xs, true)
			yst, okst := twin.InferBatch(xs, true)
			for i := range xs {
				stage := fmt.Sprintf("InferBatch n=%d start=%s member %d", n, inputs[k].name, i)
				same(stage, ysp[i], yst[i])
				if oksp[i] != want[i] || okst[i] != want[i] {
					t.Fatalf("%s: ok %v/%v, want %v", stage, oksp[i], okst[i], want[i])
				}
			}
			sameCounts(fmt.Sprintf("InferBatch n=%d start=%s", n, inputs[k].name))
		}
	}
}

// BenchmarkMLPPipelineInfer measures one verified inference on a pure
// pipeline, which charges its verify read without computing it, beside
// the NopHook twin that computes both reads, for Infer and for an
// 8-sample InferBatch (the live benchmark's BatchMax). The network is the
// live benchmark's 256-256-10 shape. The twin's hook pins op order, so its
// blocks read sample by sample rather than as one tile grid.
func BenchmarkMLPPipelineInfer(b *testing.B) {
	const in, batch = 256, 8
	pure, twin := pureTwins(b, biasFreeMLP(in, 256, 10, 5), 3)
	rng := rngutil.New(9)
	xs := make([]tensor.Vector, batch)
	for s := range xs {
		xs[s] = make(tensor.Vector, in)
		for j := range xs[s] {
			xs[s][j] = rng.Uniform(-1, 1)
		}
	}
	for _, p := range []struct {
		name string
		pipe *MLPPipeline
	}{{"pure", pure}, {"reread", twin}} {
		b.Run("Infer/"+p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.pipe.Infer(xs[i%batch], true)
			}
		})
		b.Run("InferBatch/"+p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.pipe.InferBatch(xs, true)
			}
		})
	}
}
