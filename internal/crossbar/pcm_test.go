package crossbar

import (
	"math"
	"testing"

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
