package crossbar

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/rngutil"
)

// TestSquareMatchesPowGamma2: the Gamma-2 fast path squares the headroom
// instead of calling math.Pow, which must agree bit for bit on every value
// headroom = 1 − g/GMax can take: 0, or anything in [2⁻⁵³, 1].
func TestSquareMatchesPowGamma2(t *testing.T) {
	same := func(h float64) {
		t.Helper()
		if sq, pw := h*h, math.Pow(h, 2); math.Float64bits(sq) != math.Float64bits(pw) {
			t.Fatalf("h=%v: h*h=%v, Pow=%v", h, sq, pw)
		}
	}
	for _, h := range []float64{0, 0x1p-53, 0.5, 1 - 0x1p-53, 1} {
		same(h)
	}
	rng := rngutil.New(1)
	for i := 0; i < 100000; i++ {
		same(1 - rng.Float64())
	}
}

// powPulse is the pcmPair pulse loop with math.Pow on every pulse, the
// reference the Gamma-2 square must match.
func powPulse(d *pcmPair, n int, up bool, rng *rngutil.Source) {
	for k := 0; k < n; k++ {
		g := &d.gn
		if up {
			g = &d.gp
		}
		headroom := 1 - *g/d.p.GMax
		if headroom < 0 {
			headroom = 0
		}
		step := d.p.DG * d.scale * math.Pow(headroom, d.p.Gamma)
		if d.p.CycleNoise > 0 {
			step *= 1 + rng.Normal(0, d.p.CycleNoise)
		}
		if step < 0 {
			step = 0
		}
		*g += step
		if *g > d.p.GMax {
			*g = d.p.GMax
		}
	}
}

// TestPCMPulseMatchesPowReference drives a pcmPair and the math.Pow
// reference through the same pulse schedule (through a reset and, with the
// large step, onto the GMax rail where headroom is exactly 0) and requires
// identical leg conductances throughout, for the default Gamma 2 and for an
// exponent that keeps math.Pow.
func TestPCMPulseMatchesPowReference(t *testing.T) {
	for _, gamma := range []float64{2, 1.5} {
		railed := false
		for _, dg := range []float64{0.02, 1.5} {
			m := PCM()
			m.P.Gamma = gamma
			m.P.DG = dg
			d := m.New(rngutil.New(7)).(*pcmPair)
			ref := *d
			r1, r2 := rngutil.New(8), rngutil.New(8)
			for step := 0; step < 400; step++ {
				up := step%7 < 4
				n := 1 + step%3
				if step == 200 {
					d.Reset()
					ref.Reset()
				}
				d.Pulse(n, up, r1)
				powPulse(&ref, n, up, r2)
				if math.Float64bits(d.gp) != math.Float64bits(ref.gp) || math.Float64bits(d.gn) != math.Float64bits(ref.gn) {
					t.Fatalf("gamma %v dg %v step %d: legs (%v, %v), reference (%v, %v)", gamma, dg, step, d.gp, d.gn, ref.gp, ref.gn)
				}
				railed = railed || d.Saturation() == 1
			}
		}
		if !railed {
			t.Fatalf("gamma %v: schedule never reached the GMax rail", gamma)
		}
	}
}

// TestPCMArraySharesParams pins the per-array parameter block: every pair
// of a PCM array points at one copy of the model's parameters, taken when
// the array is built (later edits to the model do not reach it), a pair is
// 32 bytes, the pairs match what PCMModel.New draws from the same stream,
// and export → import round-trips bit for bit without detaching a pair
// from the shared block.
func TestPCMArraySharesParams(t *testing.T) {
	if n := unsafe.Sizeof(pcmPair{}); n != 32 {
		t.Fatalf("pcmPair is %d bytes, want 32", n)
	}
	shared := func(a *Array) *PCMParams {
		t.Helper()
		p := a.dev[0].(*pcmPair).p
		for i, d := range a.dev {
			if d.(*pcmPair).p != p {
				t.Fatalf("device %d has its own params block", i)
			}
		}
		return p
	}
	m := PCM()
	a := NewArray(6, 5, m, DefaultConfig(), rngutil.New(41))
	if p := shared(a); p == &m.P || *p != m.P {
		t.Fatalf("array params %p %+v, want a copy of the model's %+v", p, *p, m.P)
	}
	devRng := rngutil.New(41).Child("devices")
	for i, d := range a.dev {
		got, want := d.(*pcmPair), m.New(devRng).(*pcmPair)
		if got.scale != want.scale || got.gp != want.gp || got.gn != want.gn {
			t.Fatalf("device %d: (%v, %v, %v), PCMModel.New gives (%v, %v, %v)",
				i, got.scale, got.gp, got.gn, want.scale, want.gp, want.gn)
		}
	}

	// Copy at construction: a's devices must not see the model edit. (Only
	// device-level operations are driven: Update and Program also consult
	// the live model's MeanStep, as they always have.)
	ref := NewArray(6, 5, PCM(), DefaultConfig(), rngutil.New(41))
	m.P.DG *= 10
	m.P.GMax /= 2
	m.P.Nu *= 3
	for _, arr := range []*Array{a, ref} {
		arr.PulseAll(40, true)
		arr.PulseAll(25, false)
		arr.AdvanceTime(50)
		arr.ResetAll()
		arr.PulseAll(30, true)
	}
	if !reflect.DeepEqual(a.ExportState(), ref.ExportState()) {
		t.Fatal("editing the model after NewArray changed the array's pulses")
	}

	scrambleArray(a, rngutil.New(43))
	st := a.ExportState()
	b := NewArray(6, 5, PCM(), DefaultConfig(), rngutil.New(97))
	if err := b.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	got := b.ExportState()
	for i := range st.Devices {
		for k, f := range st.Devices[i].F {
			if math.Float64bits(f) != math.Float64bits(got.Devices[i].F[k]) {
				t.Fatalf("device %d scalar %d: exported %v, re-exported %v", i, k, f, got.Devices[i].F[k])
			}
		}
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("re-export differs from the exported state")
	}
	shared(b)
}
