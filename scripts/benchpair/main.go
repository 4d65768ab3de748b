// Command benchpair is the paired run behind `make bench-served-pair`: it
// builds ./benchmark at a base revision and at the working tree, runs each
// of the given workloads on both with seeds 1..pairs, alternating which
// side goes first, and prints one block per workload: per end-to-end metric
// each side's median and quartiles and how many pairs the working tree won
// (BENCHMARK.json names the metrics and which direction is better; ties
// count for neither side).
//
// With -out it also writes the comparison to a JSON file — the record a
// performance claim commits: both revisions, the host (GOMAXPROCS, NumCPU,
// Go version), per workload and metric each side's samples, median and
// quartiles and the pairs the working tree won, and, with -claim, whether
// the claimed metric improved: won in at least 9 of 10 pairs (the same
// share of any other count) by a median gap larger than the base's
// interquartile distance.
//
// The base revision is exported with `git archive` into a temporary
// directory, so an interrupted run leaves nothing behind in .git.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

func main() {
	base := flag.String("base", "", "revision to compare the working tree against")
	workloads := flag.String("workload", "", "benchmark workloads to run, comma-separated")
	pairs := flag.Int("pairs", 10, "number of base/head pairs (seeds 1..pairs)")
	out := flag.String("out", "", "also write the comparison to this JSON file")
	claim := flag.String("claim", "", "end-to-end metric the working tree claims to improve on every workload (recorded with -out)")
	flag.Parse()
	if *base == "" || *workloads == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchpair -base <rev> -workload <name>[,<name>...] [-pairs 10] [-out <file> [-claim <metric>]]")
		os.Exit(2)
	}
	if err := run(*base, strings.Split(*workloads, ","), *pairs, *out, *claim); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func run(base string, workloads []string, pairs int, out, claim string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var manifest struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	rec, err := newRecord(base, pairs)
	if err != nil {
		return err
	}
	if claim != "" && !slices.ContainsFunc(manifest.EndToEnd, func(m metricSpec) bool { return m.Name == claim }) {
		return fmt.Errorf("-claim %s is not an end-to-end metric of BENCHMARK.json", claim)
	}

	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	src := filepath.Join(tmp, "src")
	if err := os.Mkdir(src, 0o755); err != nil {
		return err
	}
	if err := export(base, src); err != nil {
		return fmt.Errorf("export %s: %w", base, err)
	}
	bins := map[string]string{"base": filepath.Join(tmp, "bench-base"), "head": filepath.Join(tmp, "bench-head")}
	if err := build(src, bins["base"]); err != nil {
		return fmt.Errorf("build %s: %w", base, err)
	}
	if err := build("", bins["head"]); err != nil {
		return fmt.Errorf("build working tree: %w", err)
	}

	for _, workload := range workloads {
		res, err := compare(bins, tmp, base, workload, pairs, manifest.EndToEnd)
		if err != nil {
			return fmt.Errorf("%s: %w", workload, err)
		}
		rec.Workloads[workload] = res
		if claim != "" {
			rec.Claims = append(rec.Claims, judge(workload, claim, res[claim]))
		}
	}
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// compare runs one workload's pairs on the two binaries, prints its block
// and returns it per metric.
func compare(bins map[string]string, tmp, base, workload string, pairs int, metrics []metricSpec) (map[string]*metricResult, error) {
	samples := map[string]map[string][]float64{"base": {}, "head": {}}
	for seed := 1; seed <= pairs; seed++ {
		order := []string{"base", "head"}
		if seed%2 == 0 {
			order = []string{"head", "base"}
		}
		for _, side := range order {
			m, err := runOnce(bins[side], tmp, workload, seed)
			if err != nil {
				return nil, fmt.Errorf("%s, seed %d: %w", side, seed, err)
			}
			for name, v := range m {
				samples[side][name] = append(samples[side][name], v)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d %s: qps %.1f\n", workload, seed, side, m["qps"])
		}
	}

	fmt.Printf("%s, %d pairs, base %s → working tree; median [q1, q3]\n", workload, pairs, base)
	res := make(map[string]*metricResult, len(metrics))
	for _, spec := range metrics {
		b, h := samples["base"][spec.Name], samples["head"][spec.Name]
		wins := 0
		for i := range b {
			if (spec.Better == "higher" && h[i] > b[i]) || (spec.Better == "lower" && h[i] < b[i]) {
				wins++
			}
		}
		fmt.Printf("%-20s %-6s base %s  head %s  head better in %d/%d\n",
			spec.Name, spec.Unit, summary(b), summary(h), wins, len(b))
		res[spec.Name] = &metricResult{Unit: spec.Unit, Better: spec.Better, Base: describe(b), Head: describe(h), HeadWon: wins}
	}
	return res, nil
}

// record is what -out writes.
type record struct {
	Base      revision                            `json:"base"`
	Head      revision                            `json:"head"`
	Env       env                                 `json:"env"`
	Pairs     int                                 `json:"pairs"`
	Seconds   int                                 `json:"seconds"`
	Claims    []claimResult                       `json:"claims,omitempty"`
	Workloads map[string]map[string]*metricResult `json:"workloads"`
}

type revision struct {
	Rev    string `json:"rev,omitempty"`
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty,omitempty"` // the working tree had uncommitted changes
}

type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Go         string `json:"go"`
}

type metricResult struct {
	Unit    string     `json:"unit"`
	Better  string     `json:"better"`
	Base    sampleStat `json:"base"`
	Head    sampleStat `json:"head"`
	HeadWon int        `json:"head_won"`
}

type sampleStat struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"` // by seed
}

// claimResult is the verdict on a claimed metric of one workload.
type claimResult struct {
	Workload  string  `json:"workload"`
	Metric    string  `json:"metric"`
	HeadWon   int     `json:"head_won"`
	Pairs     int     `json:"pairs"`
	MedianGap float64 `json:"median_gap"` // head − base, signed so that positive is better
	BaseIQR   float64 `json:"base_iqr"`
	Holds     bool    `json:"holds"`
}

func newRecord(base string, pairs int) (*record, error) {
	baseCommit, err := git("rev-parse", base+"^{commit}")
	if err != nil {
		return nil, err
	}
	headCommit, err := git("rev-parse", "HEAD")
	if err != nil {
		return nil, err
	}
	status, err := git("status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return nil, err
	}
	return &record{
		Base:      revision{Rev: base, Commit: baseCommit},
		Head:      revision{Commit: headCommit, Dirty: status != ""},
		Env:       env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version()},
		Pairs:     pairs,
		Seconds:   windowSeconds,
		Workloads: make(map[string]map[string]*metricResult),
	}, nil
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// judge applies the claim rule to one workload's metric.
func judge(workload, metric string, m *metricResult) claimResult {
	gap := m.Head.Median - m.Base.Median
	if m.Better == "lower" {
		gap = -gap
	}
	pairs := len(m.Base.Samples)
	c := claimResult{Workload: workload, Metric: metric, HeadWon: m.HeadWon, Pairs: pairs, MedianGap: gap, BaseIQR: m.Base.Q3 - m.Base.Q1}
	c.Holds = 10*m.HeadWon >= 9*pairs && gap > c.BaseIQR
	return c
}

// runOnce runs one untraced 15 s window and returns the metrics of the
// JSON object on the run's last stdout line.
func runOnce(bin, dir, workload string, seed int) (map[string]float64, error) {
	cmd := exec.Command(bin, "--workload", workload, "--trace", "0", "--seconds", fmt.Sprint(windowSeconds), "--seed", fmt.Sprint(seed))
	cmd.Dir = dir // benchmark/out lands in the temporary directory
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last output line is not the metrics object: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("benchmark verification failed (%d failed operations)", res.Failed)
	}
	m := make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// windowSeconds is each run's measured window.
const windowSeconds = 15

// describe returns a sample's median and quartiles, interpolated linearly
// between neighbours of the sorted sample.
func describe(xs []float64) sampleStat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return sampleStat{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Samples: xs}
}

// summary formats a sample's median and quartiles.
func summary(xs []float64) string {
	d := describe(xs)
	return fmt.Sprintf("%9.3f [%9.3f, %9.3f]", d.Median, d.Q1, d.Q3)
}

// export unpacks revision rev of the repository into dir.
func export(rev, dir string) error {
	archive := exec.Command("git", "archive", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		untar.Wait()
		return err
	}
	return untar.Wait()
}

// build compiles the benchmark of the source tree at dir ("" for the
// working directory) into bin.
func build(dir, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./benchmark")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	return cmd.Run()
}
