// Command benchmark is the repository's served-path benchmark: it builds
// each workload's database, serves it in-process over loopback HTTP as
// fgmserve would, drives it closed-loop, verifies every answer and prints
// every metric by name with its unit. See README.md.
//
//	go run ./benchmark -seed 1                    every workload, both kinds of run, a summary
//	go run ./benchmark -repeat 2                  the same twice, and a check that the sets agree
//	go run ./benchmark --workload read_skew --seed 3 --seconds 10 --trace 0
//	                                              one run, ending with the driver's one-line JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all five)")
		seed         = flag.Int64("seed", 1, "seed for schedules, write batches and probe keys")
		dataSeed     = flag.Int64("data-seed", 1, "seed for the generated graphs; runs that are compared must share it")
		seconds      = flag.Float64("seconds", 20, "measured window per workload, rounded up to whole query cycles")
		trace        = flag.String("trace", "both", "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run; both")
		outDir       = flag.String("out", "benchmark/out", "directory for trace files and file-backed databases")
		repeat       = flag.Int("repeat", 1, "run the whole set this many times; from 2, fail when the sets' spread exceeds a metric's bound in BENCHMARK.json")
		singleCore   = flag.Bool("allow-single-core", false, "run the full set even at GOMAXPROCS=1, where client and server share one core")
	)
	flag.Parse()
	cfg := config{seed: *seed, dataSeed: *dataSeed, window: time.Duration(*seconds * float64(time.Second)), outDir: *outDir}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	selected := specs
	if *workloadName != "" {
		s, ok := specByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []spec{s}
	}

	// One workload and one kind of run is the driver's call: the last line
	// of standard output is its JSON object and nothing else is printed.
	if *workloadName != "" && *trace != "both" {
		runOne := runEndToEnd
		if *trace == "1" {
			runOne = runPerLayer
		}
		r, err := runOne(selected[0], cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		if r != nil {
			out, _ := json.Marshal(struct { // only numbers, strings and bools: cannot fail
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}{r.Correct, r.Attempted, r.Failed, r.Metrics.vals})
			fmt.Println(string(out))
		}
		if err != nil {
			return 1
		}
		return 0
	}

	env := currentEnv()
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s commit=%s load1=%s clients=%d seed=%d data-seed=%d window=%gs\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Load1, clients(), *seed, *dataSeed, *seconds)
	if env.GOMAXPROCS == 1 && !*singleCore {
		fmt.Fprintln(os.Stderr, "benchmark: GOMAXPROCS=1: clients and server would share one core and the numbers would not compare with any recorded at 2; pass -allow-single-core to run anyway")
		return 2
	}
	sum := summary{Seed: *seed, DataSeed: *dataSeed, Seconds: *seconds, Clients: clients(), Env: env}
	failed := false
	for set := 0; set < *repeat; set++ {
		for _, s := range selected {
			ws := workloadSummary{Name: s.name, Set: set + 1, Correct: true}
			fmt.Printf("\n== %s (set %d of %d)\n   %s\n", s.name, set+1, *repeat, s.why)
			if *trace != "1" {
				r, err := runEndToEnd(s, cfg)
				failed = ws.take(r, err, false) || failed
			}
			// Per-layer numbers do not enter the spread check, so the
			// traced run is not repeated.
			if *trace != "0" && set == 0 {
				r, err := runPerLayer(s, cfg)
				failed = ws.take(r, err, true) || failed
			}
			sum.Workloads = append(sum.Workloads, ws)
		}
	}
	if *repeat >= 2 {
		if err := sum.checkSpread("BENCHMARK.json", os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			failed = true
		}
	}
	out, _ := json.Marshal(sum) // only numbers, strings and bools: cannot fail
	fmt.Printf("\n%s\n", out)
	if failed {
		return 1
	}
	return 0
}

// environment stamps a summary with what its numbers depend on besides the
// code.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Load1      string `json:"load_average_1m"`
}

func currentEnv() environment {
	e := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Load1: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.Load1 = f[0]
		}
	}
	return e
}

// summary is the last line of a full run. It ends with "claim": null: this
// benchmark measures, and a change that claims a gain must say so itself.
type summary struct {
	Seed      int64             `json:"seed"`
	DataSeed  int64             `json:"data_seed"`
	Seconds   float64           `json:"window_seconds"`
	Clients   int               `json:"clients"`
	Env       environment       `json:"env"`
	Workloads []workloadSummary `json:"workloads"`
	Spread    []spreadRow       `json:"spread,omitempty"`
	Claim     *string           `json:"claim"`
}

type workloadSummary struct {
	Name       string            `json:"name"`
	Set        int               `json:"set"`
	Correct    bool              `json:"correct"`
	Samples    int               `json:"samples,omitempty"`
	GraphHash  string            `json:"graph_hash,omitempty"`
	AnswerHash string            `json:"answer_hash,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
}

// take prints one run's table and files its metrics; it reports whether the
// run failed.
func (ws *workloadSummary) take(r *result, err error, traced bool) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", ws.Name, err)
	}
	if r == nil {
		ws.Correct = false
		return true
	}
	ws.Correct = ws.Correct && r.Correct
	ws.GraphHash, ws.AnswerHash = fmt.Sprintf("%016x", r.GraphHash), fmt.Sprintf("%016x", r.AnswerHash)
	title := "end-to-end, untraced run"
	if traced {
		title = "per-layer, traced run"
		ws.PerLayer = r.Metrics.vals
	} else {
		ws.EndToEnd, ws.Samples = r.Metrics.vals, r.Samples
	}
	fmt.Printf("   %s: correct=%v attempted=%d failed=%d graph=%s answers=%s\n", title, r.Correct, r.Attempted, r.Failed, ws.GraphHash, ws.AnswerHash)
	for _, name := range r.Metrics.names {
		v := r.Metrics.vals[name]
		fmt.Printf("     %-36s %16.4f %-6s %s\n", name, v.Value, v.Unit, r.Metrics.notes[name])
	}
	return err != nil
}
