// Command repro-all runs the experiment registry (every figure, claim, and
// table of the paper) and writes the results to stdout — the harness used
// to produce EXPERIMENTS.md. Positional arguments select experiments by ID,
// run in the order given (e.g. `repro-all -quick F1 C0`); with none, every
// experiment runs in ID order.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro-all: ")
	seed := flag.Uint64("seed", 1234, "experiment seed")
	quick := flag.Bool("quick", false, "run reduced-size variants")
	workers := flag.Int("workers", 0, "tile-engine worker count (0 = all CPUs); any value yields bit-identical output")
	var hook obs.Hook
	hook.BindFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: repro-all [flags] [experiment IDs...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	par.SetWorkers(*workers)
	if err := hook.Start(); err != nil {
		log.Fatal(err)
	}
	par.Instrument(hook.Registry)

	var err error
	if ids := flag.Args(); len(ids) > 0 {
		err = core.Run(os.Stdout, ids, *seed, *quick)
	} else {
		err = core.RunAll(os.Stdout, *seed, *quick)
	}
	if ferr := hook.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		log.Fatal(err)
	}
}
