package faults

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// spinningEngine is the engine with the write-verify shortcut turned off:
// every blocked device spins through its budget one FilterPulses call at a
// time, the reference the shortcut must match.
type spinningEngine struct{ *Engine }

func (spinningEngine) WriteBlocked(*crossbar.Array, int, int, int) bool { return false }

func arrayBytes(t *testing.T, a *crossbar.Array) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a.ExportState()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteBlockedMatchesSpinning: programming under an engine that answers
// WriteBlocked must be indistinguishable from the spinning loop — same
// reports and pulse counts, same array and engine state (random stream
// positions included), same op counts and fault stats — across Program,
// ProgramVerify and ProgramDevice on an array with open lines, write
// failures and devices failing between passes.
func TestWriteBlockedMatchesSpinning(t *testing.T) {
	plan := Plan{StuckPerOp: 0.5, StuckValueStd: 0.3, WriteFail: 0.3, LineOpenPerOp: 0.3}
	const rows, cols = 8, 6
	newTwin := func() (*crossbar.Array, *Engine) {
		a := crossbar.NewArray(rows, cols, crossbar.PCM(), crossbar.DefaultConfig(), rngutil.New(3))
		e := NewEngine(plan, rngutil.New(4))
		e.Attach(a)
		s := e.stateOf(a)
		s.openRow(2)
		s.openCol(4)
		return a, e
	}
	a, e := newTwin()
	b, f := newTwin()
	b.SetFaultHook(spinningEngine{f})

	check := func(step string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shortcut %+v, spinning %+v", step, got, want)
		}
		if !bytes.Equal(arrayBytes(t, a), arrayBytes(t, b)) {
			t.Fatalf("%s: array state diverged", step)
		}
		ea, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := f.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea, eb) {
			t.Fatalf("%s: engine state diverged", step)
		}
		if a.Counts != b.Counts {
			t.Fatalf("%s: counts %+v vs %+v", step, a.Counts, b.Counts)
		}
		if e.Stats() != f.Stats() {
			t.Fatalf("%s: stats %+v vs %+v", step, e.Stats(), f.Stats())
		}
	}

	x := make(tensor.Vector, cols)
	for i := range x {
		x[i] = 0.5
	}
	pol := crossbar.ProgramPolicy{MaxPulses: 40, MaxRetries: 2}
	for round := 0; round < 6; round++ {
		target := randomTarget(rows, cols, 0.6, uint64(10+round))
		a.Forward(x) // ticks the lifetime clock: new stuck devices, new open lines
		b.Forward(x)
		pa, ra := a.Program(target, 60)
		pb, rb := b.Program(target, 60)
		check("Program", [2]any{pa, ra}, [2]any{pb, rb})

		a.Forward(x)
		b.Forward(x)
		check("ProgramVerify", a.ProgramVerify(target, pol), b.ProgramVerify(target, pol))

		// One device on the open row, one on the open column, one free, and
		// a blocked device asked for the weight it already holds (no pulse
		// needed, so nothing is charged).
		for _, d := range [][2]int{{2, 1}, {5, 4}, {round % rows, round % 4}, {2, 3}} {
			want := -0.4
			if d == [2]int{2, 3} {
				want = a.DeviceWeight(2, 3)
			}
			pa, ea := a.ProgramDevice(d[0], d[1], want, 50)
			pb, eb := b.ProgramDevice(d[0], d[1], want, 50)
			check("ProgramDevice", [2]any{pa, ea}, [2]any{pb, eb})
		}
	}
	st := e.Stats()
	if st.BlockedUpdates == 0 || st.DroppedWrites == 0 || st.StuckInjected == 0 {
		t.Fatalf("campaign exercised too little: %+v", st)
	}
}

// TestOpenLinesDoesNotTrack: querying an array the engine never saw must
// not register it, or the next export carries an extra LineState that no
// rebuilt engine can import.
func TestOpenLinesDoesNotTrack(t *testing.T) {
	e := NewEngine(chaoticPlan(), rngutil.New(9))
	a1, a2 := statePair(1, 2)
	e.Attach(a1)
	if r, c := e.OpenLines(a2); r != 0 || c != 0 {
		t.Fatalf("untracked array reports %d rows %d cols open", r, c)
	}
	blob, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	f := NewEngine(chaoticPlan(), rngutil.New(9))
	b1, _ := statePair(1, 2)
	f.Attach(b1)
	if err := f.ImportState(blob); err != nil {
		t.Fatalf("import after an OpenLines query: %v", err)
	}
}

// TestReopenedLineCountsOnce: a line that opens again is still one open
// line, in OpenLines and through an export/import round trip.
func TestReopenedLineCountsOnce(t *testing.T) {
	a := idealArray(1, 2, 5)
	e := NewEngine(Plan{LineOpenPerOp: 1}, rngutil.New(6))
	e.Attach(a)
	x := tensor.Vector{1, 1}
	for op := 0; op < 50; op++ {
		a.Forward(x)
	}
	if got := e.Stats().LineOpens; got != 50 {
		t.Fatalf("LineOpens = %d, want 50", got)
	}
	if r, c := e.OpenLines(a); r != 1 || c != 2 {
		t.Fatalf("OpenLines = (%d, %d), want (1, 2)", r, c)
	}
	blob, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	f := NewEngine(Plan{LineOpenPerOp: 1}, rngutil.New(6))
	b := idealArray(1, 2, 5)
	f.Attach(b)
	if err := f.ImportState(blob); err != nil {
		t.Fatal(err)
	}
	if r, c := f.OpenLines(b); r != 1 || c != 2 {
		t.Fatalf("restored OpenLines = (%d, %d), want (1, 2)", r, c)
	}
}
