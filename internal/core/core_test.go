package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "F1", "F2", "F5", "R1", "R2", "R3", "R6", "T1", "T2"}
	got := Registry()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.PaperClaim == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("T1"); !ok {
		t.Fatal("T1 should exist")
	}
	if _, ok := Lookup("Z9"); ok {
		t.Fatal("Z9 should not exist")
	}
}

// Every experiment must run in quick mode and produce non-trivial output.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, 42, true); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if buf.Len() < 40 {
				t.Fatalf("%s produced only %d bytes", e.ID, buf.Len())
			}
		})
	}
}

func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, 42, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"F1", "T1", "T2"} {
		if !strings.Contains(out, "=== "+id) {
			t.Fatalf("RunAll output missing section %s", id)
		}
	}
}

// fakeRegistry swaps in cheap experiments that print their own ID, so the
// selection tests below check Run's ordering and output without paying
// for the real experiments.
func fakeRegistry(t *testing.T, ids ...string) {
	saved := registry
	registry = map[string]Experiment{}
	t.Cleanup(func() { registry = saved })
	for _, id := range ids {
		register(Experiment{ID: id, Title: "title " + id, PaperClaim: "claim " + id,
			Run: func(w io.Writer, seed uint64, quick bool) error {
				_, err := fmt.Fprintf(w, "ran %s seed=%d quick=%v\n", id, seed, quick)
				return err
			}})
	}
}

// An unknown ID anywhere in the list fails before any experiment runs, and
// the error names the valid IDs.
func TestRunUnknownID(t *testing.T) {
	fakeRegistry(t, "A1", "B2")
	var buf bytes.Buffer
	err := Run(&buf, []string{"B2", "Z9"}, 42, true)
	if err == nil {
		t.Fatal("Run accepted unknown experiment Z9")
	}
	if buf.Len() != 0 {
		t.Fatalf("Run wrote %q before failing", buf.String())
	}
	for _, want := range []string{`"Z9"`, "A1 B2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
}

// Experiments run in argument order, not ID order, each under its own
// section header.
func TestRunArgumentOrder(t *testing.T) {
	fakeRegistry(t, "A1", "B2")
	var buf bytes.Buffer
	if err := Run(&buf, []string{"B2", "A1"}, 7, false); err != nil {
		t.Fatal(err)
	}
	want := "\n=== B2: title B2 ===\npaper: claim B2\n\nran B2 seed=7 quick=false\n" +
		"\n=== A1: title A1 ===\npaper: claim A1\n\nran A1 seed=7 quick=false\n"
	if got := buf.String(); got != want {
		t.Fatalf("Run(B2, A1) wrote\n%q\nwant\n%q", got, want)
	}
}

// RunAll is Run over every registered ID, in ID order.
func TestRunAllIsRunOverRegistry(t *testing.T) {
	fakeRegistry(t, "B2", "A1", "C3")
	var all, byID bytes.Buffer
	if err := RunAll(&all, 42, true); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	if err := Run(&byID, ids, 42, true); err != nil {
		t.Fatal(err)
	}
	if all.String() != byID.String() {
		t.Fatalf("RunAll wrote\n%q\nRun over Registry() IDs wrote\n%q", all.String(), byID.String())
	}
	if !strings.HasPrefix(all.String(), "\n=== A1:") {
		t.Fatalf("RunAll did not start with A1:\n%s", all.String())
	}
}

// Quick smoke of key in-band numbers on the quick variants: T1 bands.
func TestT1QuickOutputHasRatios(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Lookup("T1")
	if err := e.Run(&buf, 1, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x") || !strings.Contains(buf.String(), "copy-seq") {
		t.Fatalf("unexpected T1 output: %s", buf.String())
	}
}
