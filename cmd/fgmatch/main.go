// Command fgmatch builds a graph database over a data graph and evaluates
// graph pattern queries against it.
//
// Usage:
//
//	fgmatch -graph data.fgm -query "A->C; B->C; C->D"
//	fgmatch -graph data.fgm -query "..." -algo dp -explain
//	fgmatch -graph data.fgm -query "..." -analyze -limit 5
//	fgmatch -graph data.fgm -stats
//	fgmatch -db grown.fdb -repack packed.fdb
//
// The graph file uses the text format written by fgmgen. Results print one
// match per line as label=nodeID pairs. -repack is an offline maintenance
// mode: it rewrites a persisted database (typically fragmented by edge
// inserts) into the dense bulk-loaded layout at a new path.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"fastmatch"
	"fastmatch/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fgmatch:", err)
		os.Exit(1)
	}
}

func run() error {
	algorithm := fastmatch.DPS
	flag.Func("algo", "`planner`: dp or dps (default dps)", func(s string) (err error) {
		algorithm, err = fastmatch.ParseAlgorithm(s)
		return err
	})
	var (
		graphPath   = flag.String("graph", "", "data graph file (text format; required)")
		query       = flag.String("query", "", "pattern, e.g. \"A->C; B->C\"")
		explain     = flag.Bool("explain", false, "print the chosen plan (operator kinds, cost estimates) instead of running it")
		analyze     = flag.Bool("analyze", false, "run and print per-step rows/IO/time")
		stats       = flag.Bool("stats", false, "print index statistics")
		limit       = flag.Int("limit", 20, "max result rows to print (0 = all)")
		budgetRows  = flag.Int("budget-rows", 0, "kill the query once an intermediate table exceeds this many rows (0 = unbounded)")
		budgetBytes = flag.Int64("budget-bytes", 0, "kill the query once intermediate results exceed this many bytes (0 = unbounded)")
		pool        = flag.Int("pool", 0, "buffer pool bytes (default 1 MB)")
		dot         = flag.String("dot", "", "write the data graph in Graphviz DOT format to this file and exit")
		dotMax      = flag.Int("dotmax", 200, "max nodes in -dot output (0 = all)")
		dbPath      = flag.String("db", "", "persisted database file (for -repack)")
		repack      = flag.String("repack", "", "rewrite the -db database into a dense bulk-loaded file at this path and exit")
	)
	flag.Parse()
	if *repack != "" {
		if *dbPath == "" {
			return fmt.Errorf("-repack requires -db")
		}
		return runRepack(*dbPath, *repack)
	}
	// -explain only plans and -analyze runs unbudgeted: neither would apply
	// a budget, so asking for one with them is refused, not ignored.
	if (*explain || *analyze) && (*budgetRows > 0 || *budgetBytes > 0) {
		fmt.Fprintln(flag.CommandLine.Output(), "fgmatch: -budget-rows and -budget-bytes cannot be combined with -explain or -analyze")
		flag.Usage()
		os.Exit(2)
	}
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	g, err := graph.ReadText(f)
	f.Close()
	if err != nil {
		return err
	}

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		return graph.WriteDOT(f, g, *dotMax)
	}

	eng, err := fastmatch.NewEngine(g, fastmatch.Options{PoolBytes: *pool})
	if err != nil {
		return err
	}
	defer eng.Close()

	if *stats {
		fmt.Println(eng.Stats())
		if *query == "" {
			return nil
		}
	}
	if *query == "" {
		return fmt.Errorf("-query is required (or use -stats)")
	}

	p, err := fastmatch.ParsePattern(*query)
	if err != nil {
		return err
	}

	if *explain {
		plan, err := eng.Explain(p, algorithm)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}

	var res *fastmatch.Result
	if *analyze {
		var plan *fastmatch.Plan
		var traces []fastmatch.StepTrace
		res, plan, traces, err = eng.ExplainAnalyze(p, algorithm)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		for i, tr := range traces {
			// A step the Fetch before it absorbed ran as intersections of
			// that Fetch's partner lists: its time is on the Fetch's line.
			// A Fetch whose column the result kept wrote no rows.
			elapsed := fmt.Sprintf("%.2fms", tr.ElapsedMS)
			if tr.Fused {
				elapsed = "fused"
			}
			if tr.Factorised {
				elapsed += " factorised"
			}
			fmt.Printf("  step %d %-9s rows=%-8d io=%-8d chits=%-6d %s\n",
				i+1, tr.Step.Kind, tr.Rows, tr.IO, tr.CenterCacheHits, elapsed)
		}
	} else if *budgetRows > 0 || *budgetBytes > 0 {
		b := &fastmatch.Budget{MaxTableRows: *budgetRows, MaxBytes: *budgetBytes}
		res, err = eng.QueryPatternBudget(context.Background(), p, algorithm, b)
		if err != nil {
			return err
		}
	} else {
		res, err = eng.QueryPattern(p, algorithm)
		if err != nil {
			return err
		}
	}

	res.SortRows()
	fmt.Printf("%d matches\n", res.Len())
	for i, row := range res.Rows {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... (%d more)\n", res.Len()-i)
			break
		}
		for j, v := range row {
			if j > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%s=%d", p.Nodes[res.Cols[j]], v)
		}
		fmt.Println()
	}
	return nil
}

// runRepack rewrites src into the bulk layout at dst and reports the file
// size change.
func runRepack(src, dst string) error {
	before, err := os.Stat(src)
	if err != nil {
		return err
	}
	if err := fastmatch.Repack(src, dst); err != nil {
		return err
	}
	after, err := os.Stat(dst)
	if err != nil {
		return err
	}
	fmt.Printf("repacked %s (%d bytes) -> %s (%d bytes)\n", src, before.Size(), dst, after.Size())
	return nil
}
