// Command fgmbench regenerates the paper's tables and figures (Section 6)
// on the scaled-down XMark-substitute datasets. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for paper-vs-measured discussion.
//
// Usage:
//
//	fgmbench -exp all                # every experiment
//	fgmbench -exp table2             # one experiment
//	fgmbench -exp fig6a -mult 0.5    # half-size datasets
//	fgmbench -exp ablations          # the design-choice ablations
//	fgmbench -list                   # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"fastmatch/internal/bench"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment ID or \"all\"")
		mult = flag.Float64("mult", 1.0, "dataset size multiplier (1.0 = 20K–100K node ladder)")
		seed = flag.Int64("seed", 1, "data generation seed")
		reps = flag.Int("reps", 2, "timed repetitions per query (minimum reported)")
		list = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()
	ids := append(append([]string{}, bench.PaperIDs...), bench.AblationIDs...)
	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	var run []string
	switch {
	case *exp == "all":
		run = bench.PaperIDs
	case *exp == "ablations":
		run = bench.AblationIDs
	case slices.Contains(ids, *exp):
		run = []string{*exp}
	default:
		fmt.Fprintf(os.Stderr, "fgmbench: unknown experiment %q (see -list)\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	// Stamp every text artifact with the machine context the timings
	// were taken on.
	fmt.Println(bench.CurrentEnv())

	r := bench.NewRunner(*mult, *seed)
	r.Reps = *reps
	defer r.Close()

	reports, err := r.Run(run)
	for _, rep := range reports {
		rep.Print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgmbench:", err)
		os.Exit(1)
	}
}
