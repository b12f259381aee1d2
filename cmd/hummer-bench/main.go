// Command hummer-bench regenerates the paper-quality reproduction
// experiments (E3–E7, E9–E11) and prints their tables. Every table is
// deterministic for a given seed; performance is measured by the
// benchmark (BENCHMARK.json + benchmark/), not here.
//
// Usage:
//
//	hummer-bench                 # run all experiments
//	hummer-bench -exp e5         # run one experiment
//	hummer-bench -seed 7         # change the workload seed
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"hummer/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (e.g. e5); empty runs all: "+
		strings.Join(experiments.IDs(), ", "))
	seed := flag.Int64("seed", 2005, "workload seed")
	flag.Parse()

	ctx := context.Background()
	ids := experiments.IDs()
	if *exp != "" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		rep := experiments.ByID(ctx, id, *seed)
		if rep == nil {
			fmt.Fprintf(os.Stderr, "hummer-bench: unknown experiment %q (known: %s)\n",
				id, strings.Join(experiments.IDs(), ", "))
			os.Exit(1)
		}
		fmt.Println(rep)
	}
}
