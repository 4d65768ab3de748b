// Command fgmgen generates XMark-substitute data graphs in the text graph
// format (see internal/graph's WriteText).
//
// Usage:
//
//	fgmgen -nodes 20000 -seed 1 -out data.fgm
//	fgmgen -factor 0.01 -dag -out dag.fgm     # acyclic, for TSD-style use
//
// Exactly one of -nodes or -factor must be positive. -factor follows the
// paper's XMark scale (1.0 ≈ 1.67M nodes).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fastmatch/internal/graph"
	"fastmatch/internal/twohop"
	"fastmatch/internal/xmark"
)

func main() {
	var (
		nodes  = flag.Int("nodes", 0, "approximate node budget")
		factor = flag.Float64("factor", 0, "XMark scale factor (1.0 ≈ 1.67M nodes)")
		seed   = flag.Int64("seed", 0, "generator seed")
		dag    = flag.Bool("dag", false, "generate an acyclic graph (references point to later documents)")
		out    = flag.String("out", "", "output file (default stdout)")
		stats  = flag.Bool("cover-stats", false, "also compute the 2-hop cover and print its statistics to stderr")
	)
	flag.Parse()
	if (*nodes <= 0) == (*factor <= 0) {
		fmt.Fprintln(os.Stderr, "fgmgen: set exactly one of -nodes or -factor")
		os.Exit(2)
	}
	d := xmark.Generate(xmark.Config{
		Nodes:  *nodes,
		Factor: *factor,
		Seed:   *seed,
		DAG:    *dag,
	})
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fgmgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteText(w, d.Graph); err != nil {
		fmt.Fprintln(os.Stderr, "fgmgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "fgmgen: %d docs, %d nodes, %d edges, %d labels\n",
		d.Docs, d.Graph.NumNodes(), d.Graph.NumEdges(), d.Graph.Labels().Len())
	if *stats {
		start := time.Now()
		cover := twohop.Compute(d.Graph, twohop.Options{})
		fmt.Fprintf(os.Stderr, "fgmgen: %v (computed in %s)\n",
			cover.Stats(), time.Since(start).Round(time.Millisecond))
	}
}
