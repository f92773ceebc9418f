package crossbar

import (
	"math"

	"repro/internal/rngutil"
)

// PCMParams parameterizes the phase-change-memory differential pair of
// §II-B.1. Each leg is a unidirectional conductance in [0, GMax] whose
// potentiation step shrinks as it crystallizes (saturates); the signed
// weight is w = G⁺ − G⁻. Depression of the weight is implemented by
// potentiating the negative leg. Both legs drift toward lower conductance
// over time with exponent Nu; a projection liner (§II-B.1, refs. [26],[27])
// divides the effective drift exponent by ProjectionFactor.
type PCMParams struct {
	DG         float64 // nominal conductance increment per pulse
	GMax       float64 // per-leg conductance ceiling
	Gamma      float64 // saturation exponent: step ∝ (1−g/GMax)^Gamma
	CycleNoise float64 // per-pulse multiplicative noise std
	DeviceVar  float64 // device-to-device increment variation std
	Nu         float64 // drift exponent ν: g(t) = g·(1+t/T0)^(−ν)
	T0         float64 // drift reference time in seconds
	Projection float64 // ≥1; liner factor dividing ν (1 = no liner)
}

// PCMModel builds PCM differential-pair devices.
type PCMModel struct {
	P PCMParams
}

// PCM returns a differential-pair model with literature-typical analog PCM
// behaviour: saturating unidirectional SET, ~1 % cycle noise floor, and
// resistance drift with ν ≈ 0.03 (unprojected).
func PCM() *PCMModel {
	return &PCMModel{P: PCMParams{
		DG:         0.004,
		GMax:       1.0,
		Gamma:      2.0,
		CycleNoise: 0.25,
		DeviceVar:  0.15,
		Nu:         0.03,
		T0:         1.0,
		Projection: 1.0,
	}}
}

// PCMProjected returns the same device with a metallic projection liner
// that suppresses drift by roughly an order of magnitude.
func PCMProjected() *PCMModel {
	m := PCM()
	m.P.Projection = 10
	return m
}

// Name implements Model.
func (m *PCMModel) Name() string {
	if m.P.Projection > 1 {
		return "pcm-projected"
	}
	return "pcm"
}

// MeanStep implements Model.
func (m *PCMModel) MeanStep() float64 {
	// Step at g = GMax/2, the mid-programming regime.
	return m.P.DG * math.Pow(0.5, m.P.Gamma)
}

// WeightBounds implements Model.
func (m *PCMModel) WeightBounds() (float64, float64) { return -m.P.GMax, m.P.GMax }

// New implements Model.
func (m *PCMModel) New(rng *rngutil.Source) Device {
	scale := 1.0
	if m.P.DeviceVar > 0 {
		scale = math.Max(0.05, rng.Normal(1, m.P.DeviceVar))
	}
	// Start both legs mid-range so the pair has programming headroom in both
	// directions, as done when arrays are initialized for training.
	return &pcmPair{p: m.P, scale: scale, gp: 0.25 * m.P.GMax, gn: 0.25 * m.P.GMax}
}

type pcmPair struct {
	p      PCMParams
	scale  float64
	gp, gn float64 // G⁺ and G⁻ legs
}

func (d *pcmPair) Weight() float64 { return d.gp - d.gn }

func (d *pcmPair) Pulse(n int, up bool, rng *rngutil.Source) {
	for k := 0; k < n; k++ {
		g := &d.gn
		if up {
			g = &d.gp
		}
		headroom := 1 - *g/d.p.GMax
		if headroom < 0 {
			headroom = 0
		}
		// Gamma 2 (the default) squares instead of calling math.Pow, bit for
		// bit the same: headroom is 0 or at least 2⁻⁵³ (1 − g/GMax is exact
		// by Sterbenz once g/GMax ≥ ½), so the square never goes subnormal,
		// and Pow with exponent 2 squares the frexp mantissa and rescales it
		// exactly — one rounding of the same product either way.
		sat := headroom * headroom
		if d.p.Gamma != 2 {
			sat = math.Pow(headroom, d.p.Gamma)
		}
		step := d.p.DG * d.scale * sat
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

// Drift implements Drifter: both legs decay multiplicatively; the liner
// (Projection > 1) reduces the effective exponent.
func (d *pcmPair) Drift(dt float64) {
	nu := d.p.Nu / d.p.Projection
	f := math.Pow(1+dt/d.p.T0, -nu)
	d.gp *= f
	d.gn *= f
}

// Reset implements Resetter: the simultaneous RESET that keeps the weight
// difference while restoring programming headroom (§II-B.1). The common
// mode min(G⁺, G⁻) is removed from both legs.
func (d *pcmPair) Reset() {
	common := math.Min(d.gp, d.gn)
	d.gp -= common
	d.gn -= common
}

// Saturation reports how much of the per-leg range is consumed, the
// quantity that forces periodic resets: max(G⁺, G⁻)/GMax.
func (d *pcmPair) Saturation() float64 {
	return math.Max(d.gp, d.gn) / d.p.GMax
}
