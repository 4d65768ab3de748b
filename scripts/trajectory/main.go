// Command trajectory prints the served-path trajectory the committed claim
// files record: one Markdown table row per BENCH_<n>.json in the working
// directory, the repository root, in order of n — parent to child — with
// the file's base and head commits and, per workload it measured, the
// head/base ratio of the median qps and the product of those ratios down
// the chain so far.
//
//	go run ./scripts/trajectory
//
// The product covers only measured steps: commits between one file's head
// and the next file's base are not in it.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

func main() {
	if err := trajectory(os.Stdout, "."); err != nil {
		fmt.Fprintln(os.Stderr, "trajectory:", err)
		os.Exit(1)
	}
}

// claimFile is the part of a benchpair record the trajectory reads.
type claimFile struct {
	Base struct {
		Commit string `json:"commit"`
	} `json:"base"`
	Head struct {
		Commit string `json:"commit"`
	} `json:"head"`
	Claims    []claim `json:"claims"`
	Workloads map[string]map[string]struct {
		Base struct {
			Median float64 `json:"median"`
		} `json:"base"`
		Head struct {
			Median float64 `json:"median"`
		} `json:"head"`
	} `json:"workloads"`
}

// claim is one claim verdict of a claim file.
type claim struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Holds    bool   `json:"holds"`
}

// trajectory writes the table for the claim files in dir to w.
func trajectory(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_*.json in %s", dir)
	}
	slices.SortFunc(paths, func(a, b string) int { return fileNumber(a) - fileNumber(b) })
	files := make([]claimFile, len(paths))
	var workloads []string
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for name := range files[i].Workloads {
			if !slices.Contains(workloads, name) {
				workloads = append(workloads, name)
			}
		}
	}
	slices.Sort(workloads)

	fmt.Fprintf(w, "| claim file | base | head | %s |\n", strings.Join(workloads, " | "))
	fmt.Fprintf(w, "|---|---|---|%s\n", strings.Repeat("---|", len(workloads)))
	chain := make(map[string]float64, len(workloads))
	for _, name := range workloads {
		chain[name] = 1
	}
	for i, f := range files {
		cells := []string{filepath.Base(paths[i]), short(f.Base.Commit), short(f.Head.Commit)}
		for _, name := range workloads {
			qps, ok := f.Workloads[name]["qps"]
			if !ok || qps.Base.Median <= 0 {
				cells = append(cells, "—")
				continue
			}
			ratio := qps.Head.Median / qps.Base.Median
			chain[name] *= ratio
			cell := fmt.Sprintf("%.3f", ratio)
			if slices.Contains(f.Claims, claim{name, "qps", true}) {
				cell = "**" + cell + "**"
			}
			cells = append(cells, fmt.Sprintf("%s [%.3f]", cell, chain[name]))
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	}
	fmt.Fprintln(w, "\nEach cell: head/base median qps, bold where the file's qps claim holds on that workload; in brackets, the product down the chain.")
	return nil
}

// fileNumber is n of BENCH_<n>.json, or -1 when the name carries none.
func fileNumber(path string) int {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json"))
	if err != nil {
		return -1
	}
	return n
}

// short abbreviates a commit hash to git's seven characters.
func short(commit string) string {
	if len(commit) > 7 {
		return commit[:7]
	}
	return commit
}
