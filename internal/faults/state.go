package faults

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/rngutil"
)

// LineState is the open-line registry of one array, rows and columns sorted
// ascending so the encoding is canonical.
type LineState struct {
	Rows, Cols []int
}

// EngineState is the resumable state of a campaign engine: the position of
// its random stream, the injected-fault counters (which also clock the
// drift-burst schedule), and the open-line registry of every attached array
// in attach order. Stuck devices live in the arrays themselves and travel
// with crossbar.ArrayState.
type EngineState struct {
	RNG   rngutil.State
	Stats Stats
	Lines []LineState
}

// StateKey implements ckpt.StateProvider.
func (e *Engine) StateKey() string { return "faults-engine" }

// ExportState implements ckpt.StateProvider: it serializes the engine's
// EngineState with gob. Array identity is positional — the i-th LineState
// belongs to the i-th array the engine was attached to — so a restoring run
// must Attach the rebuilt arrays in the same order before ImportState.
func (e *Engine) ExportState() ([]byte, error) {
	st := EngineState{RNG: e.rng.State(), Stats: e.stats}
	for _, a := range e.order {
		s := e.state[a]
		ls := LineState{}
		for r, open := range s.openRows {
			if open {
				ls.Rows = append(ls.Rows, r)
			}
		}
		for c, open := range s.openCols {
			if open {
				ls.Cols = append(ls.Cols, c)
			}
		}
		st.Lines = append(st.Lines, ls)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("faults: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// ImportState implements ckpt.StateProvider: it restores a previously
// exported state onto an engine already attached (in the same order) to the
// rebuilt arrays of the resuming run.
func (e *Engine) ImportState(blob []byte) error {
	var st EngineState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return fmt.Errorf("faults: decode state: %w", err)
	}
	if len(st.Lines) != len(e.order) {
		return fmt.Errorf("faults: state tracks %d arrays, engine attached to %d", len(st.Lines), len(e.order))
	}
	e.rng = rngutil.FromState(st.RNG)
	e.seed = st.RNG.Seed
	e.stats = st.Stats
	for i, a := range e.order {
		s := e.state[a]
		*s = *newArrayState(a)
		for _, r := range st.Lines[i].Rows {
			if r < 0 || r >= a.Rows() {
				return fmt.Errorf("faults: open row %d out of range for array %d", r, i)
			}
			s.openRow(r)
		}
		for _, c := range st.Lines[i].Cols {
			if c < 0 || c >= a.Cols() {
				return fmt.Errorf("faults: open col %d out of range for array %d", c, i)
			}
			s.openCol(c)
		}
	}
	return nil
}
