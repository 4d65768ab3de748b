package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is the part of BENCHMARK.json the benchmark reads back: the
// bounds live there and nowhere else, so the self-check and the driver
// cannot disagree about them.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// spreadRow is one end-to-end metric of one workload across the repeated
// sets.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// checkSpread compares the repeated sets: for each workload and end-to-end
// metric it prints the median, the quartiles and their distance as a share
// of the median, the way the driver computes it, and fails when that
// exceeds the metric's own bound. Inputs and verified answers must agree
// exactly.
func (s *summary) checkSpread(manifestPath string, out io.Writer) error {
	man, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	byName := make(map[string][]workloadSummary)
	var order []string
	for _, ws := range s.Workloads {
		if byName[ws.Name] == nil {
			order = append(order, ws.Name)
		}
		byName[ws.Name] = append(byName[ws.Name], ws)
	}
	var bad int
	fmt.Fprintf(out, "\nspread between %d sets (quartile distance over median; bound from %s)\n", len(byName[order[0]]), manifestPath)
	for _, name := range order {
		sets := byName[name]
		for _, ws := range sets[1:] {
			if ws.GraphHash != sets[0].GraphHash || ws.AnswerHash != sets[0].AnswerHash {
				fmt.Fprintf(out, "  %-15s inputs or answers differ between sets: %s/%s and %s/%s\n", name, sets[0].GraphHash, sets[0].AnswerHash, ws.GraphHash, ws.AnswerHash)
				bad++
			}
		}
		for _, def := range man.EndToEnd {
			var xs []float64
			for _, ws := range sets {
				if v, ok := ws.EndToEnd[def.Name]; ok {
					xs = append(xs, v.Value)
				}
			}
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			row := spreadRow{Workload: name, Metric: def.Name, Q1: q1, Median: q2, Q3: q3, Spread: ratio(q3-q1, q2), Bound: def.Bound}
			row.OK = row.Spread <= row.Bound
			verdict := "ok"
			if !row.OK {
				verdict = "EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(out, "  %-15s %-20s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.2f%%  bound %5.1f%%  %s\n",
				name, def.Name, q2, q1, q3, 100*row.Spread, 100*row.Bound, verdict)
			s.Spread = append(s.Spread, row)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics spread further between sets than their bound allows", bad)
	}
	return nil
}
