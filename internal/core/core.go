// Package core is the paper-facing facade of the repository: a registry
// that maps every quantitative artifact of "Emerging Neural Workloads and
// Their Impact on Hardware" (DATE 2020) — figures F1/F2/F5, claims C1–C6,
// tables T1/T2, per DESIGN.md — to a runnable experiment that regenerates
// the corresponding numbers on the simulated substrates.
//
// Command-line tools (cmd/*) and the benchmark harness (bench_test.go)
// both drive experiments exclusively through this registry, so every
// reported number has exactly one implementation.
package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the artifact identifier from DESIGN.md (e.g. "T1").
	ID string
	// Title is a one-line description of what is regenerated.
	Title string
	// PaperClaim restates the number/shape the paper reports.
	PaperClaim string
	// Quick runs a reduced-size variant when true (used by unit tests);
	// the full variant regenerates the EXPERIMENTS.md numbers.
	Run func(w io.Writer, seed uint64, quick bool) error
}

var registry = map[string]Experiment{}

// register adds an experiment at package init; duplicate IDs panic.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("core: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Registry returns all experiments ordered by ID.
func Registry() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// allIDs returns every registered experiment ID in order.
func allIDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// RunAll executes every experiment in ID order.
func RunAll(w io.Writer, seed uint64, quick bool) error {
	return Run(w, allIDs(), seed, quick)
}

// Run executes the named experiments in argument order, writing a section
// header before each. Every ID is resolved before anything runs, so an
// unknown ID fails without output; its error lists the valid IDs.
func Run(w io.Writer, ids []string, seed uint64, quick bool) error {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := registry[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(allIDs(), " "))
		}
		exps[i] = e
	}
	for _, e := range exps {
		fmt.Fprintf(w, "\n=== %s: %s ===\npaper: %s\n\n", e.ID, e.Title, e.PaperClaim)
		if err := e.Run(w, seed, quick); err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
	}
	return nil
}
