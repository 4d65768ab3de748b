package bench

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
)

// FastpathResult is one machine-readable tiered-vs-forced measurement, the
// row schema of BENCH_fastpath.json.
type FastpathResult struct {
	// Name identifies the battery entry and Pattern its text form.
	Name    string `json:"name"`
	Pattern string `json:"pattern"`
	// Dataset is the dataset the pattern ran on.
	Dataset string `json:"dataset"`
	// Class is the battery class: single-edge, star, point-probe, or
	// impossible.
	Class string `json:"class"`
	// Tier is the tier the router chose (1 = index-only, 2 = signature
	// prefilter, 3 = full pipeline).
	Tier int `json:"tier"`
	// Rows is the result cardinality (identical under both modes by the
	// result-identical contract).
	Rows int `json:"rows"`
	// TieredMS is the median plan+execute latency of the default plan
	// (prefilter, decoded read path); Tier3MS the same query in the
	// counted-I/O reference mode (planned with NoFastPath). The field names
	// predate the single read path and stay for BENCH_fastpath.json.
	TieredMS float64 `json:"tiered_ms"`
	Tier3MS  float64 `json:"tier3_ms"`
	// Speedup is Tier3MS / TieredMS.
	Speedup float64 `json:"speedup"`
	// Index names the index structure that answered a tier-1/2 query.
	Index string `json:"index"`
}

// fastpathReps is the number of timed repetitions per mode; the battery
// queries are microsecond-scale, so a wide median is cheap and keeps timer
// noise out of the committed speedups.
const fastpathReps = 31

// timeTiered measures one pattern end to end (plan + execute) in steady
// state — warm caches, median of fastpathReps runs — under the given plan
// configuration. Fast-path queries are dominated by fixed per-query
// overheads, so steady-state medians (not cold-cache minima) are what the
// tier router actually changes.
func (r *Runner) timeTiered(snap *gdb.Snap, p *pattern.Pattern, pc exec.PlanConfig) (Measure, error) {
	ctx := context.Background()
	samples := make([]float64, 0, fastpathReps)
	var rows int
	for rep := 0; rep < fastpathReps+1; rep++ {
		start := time.Now()
		plan, err := exec.BuildPlanSnapConfig(snap, p, exec.DPS, pc)
		if err != nil {
			return Measure{}, err
		}
		res, err := exec.RunSnapConfig(ctx, snap, plan, exec.RunConfig{})
		if err != nil {
			return Measure{}, err
		}
		if rep == 0 {
			// Warm-up run: fills the statistics memos and buffer pool.
			rows = res.Len()
			continue
		}
		if res.Len() != rows {
			return Measure{}, fmt.Errorf("bench: fastpath rows changed between runs: %d vs %d", res.Len(), rows)
		}
		// Nanosecond precision: a tier-2 answer completes in well under a
		// microsecond, which the other experiments' µs granularity would
		// round to zero.
		samples = append(samples, float64(time.Since(start).Nanoseconds())/1e6)
	}
	slices.Sort(samples)
	return Measure{ElapsedMS: samples[len(samples)/2], Rows: rows}, nil
}

// fastpathEntry is one battery pattern before measurement.
type fastpathEntry struct {
	name, class, text string
}

// fastpathBattery derives the battery from the snapshot's own fan
// signature, so it adapts to the generated data instead of hard-coding
// label pairs: the largest possible single-edge joins, a star around the
// best-connected source label, the smallest-extent possible pair as the
// point probe, and a signature-absent pair as the impossible pattern.
func fastpathBattery(snap *gdb.Snap) ([]fastpathEntry, error) {
	g := snap.Graph()
	sig := snap.Signature()
	if sig == nil {
		return nil, fmt.Errorf("bench: snapshot has no fan signature")
	}
	labels := g.Labels()
	type pair struct {
		x, y graph.Label
		st   gdb.PairStat
	}
	var possible, impossible []pair
	for x := graph.Label(0); int(x) < labels.Len(); x++ {
		for y := graph.Label(0); int(y) < labels.Len(); y++ {
			if x == y {
				continue
			}
			st := sig.Pair(x, y)
			if st.Centers > 0 {
				possible = append(possible, pair{x, y, st})
			} else {
				impossible = append(impossible, pair{x, y, st})
			}
		}
	}
	if len(possible) == 0 {
		return nil, fmt.Errorf("bench: no possible label pairs")
	}
	var battery []fastpathEntry
	edge := func(p pair) string {
		return labels.Name(p.x) + "->" + labels.Name(p.y)
	}

	// Single-edge: the three largest joins, where the skipped spill and
	// dedup projection are proportional to the result.
	sort.Slice(possible, func(i, j int) bool { return possible[i].st.JoinSize > possible[j].st.JoinSize })
	for i := 0; i < 3 && i < len(possible); i++ {
		battery = append(battery, fastpathEntry{
			name:  fmt.Sprintf("FP-edge%d", i+1),
			class: "single-edge",
			text:  edge(possible[i]),
		})
	}

	// Star: the source label with the most distinct partner labels,
	// joined to its two largest partners (A->B; A->C).
	partners := make(map[graph.Label][]pair)
	for _, p := range possible {
		partners[p.x] = append(partners[p.x], p)
	}
	var star graph.Label
	found := false
	for x, ps := range partners {
		// Need two partners with distinct labels, both distinct from x.
		if len(ps) >= 2 && (!found || len(ps) > len(partners[star])) {
			star, found = x, true
		}
	}
	if found {
		ps := partners[star]
		sort.Slice(ps, func(i, j int) bool { return ps[i].st.JoinSize > ps[j].st.JoinSize })
		battery = append(battery, fastpathEntry{
			name:  "FP-star",
			class: "star",
			text:  edge(ps[0]) + "; " + edge(ps[1]),
		})
	}

	// Point probe: the possible pair with the smallest extent product —
	// the closest the generated data gets to a single-pair reachability
	// question.
	probe := possible[0]
	probeCost := func(p pair) int {
		return g.ExtentSize(p.x) * g.ExtentSize(p.y)
	}
	for _, p := range possible[1:] {
		if probeCost(p) < probeCost(probe) {
			probe = p
		}
	}
	battery = append(battery, fastpathEntry{
		name:  "FP-probe",
		class: "point-probe",
		text:  edge(probe),
	})

	// Impossible: a label pair with no W-table centers; the prefilter
	// answers it in O(pattern) while the forced pipeline plans and runs.
	if len(impossible) > 0 {
		battery = append(battery, fastpathEntry{
			name:  "FP-empty",
			class: "impossible",
			text:  edge(impossible[0]),
		})
	}
	return battery, nil
}

// FastpathMicro measures default execution against the counted-I/O
// reference mode on a battery of index-only query shapes (single-edge
// joins, a star, a point probe, and an impossible pattern). Both modes must agree
// on row counts — the result-identical contract — and the committed
// BENCH_fastpath.json feeds the bench-compare regression guard.
func (r *Runner) FastpathMicro() (*Report, []FastpathResult, error) {
	s := Scales(r.Mult)[0]
	db, err := r.db(s)
	if err != nil {
		return nil, nil, err
	}
	snap, release := db.Pin()
	defer release()

	rep := &Report{
		ID:    "fastpath",
		Title: fmt.Sprintf("default execution vs counted-I/O reference mode (%s)", s.Name),
		PaperClaim: "simple patterns — single R-joins, stars, point probes, and " +
			"provably empty patterns — are answerable from the cluster index and " +
			"fan-signature table alone; reading decoded per-epoch lists instead of " +
			"pool pages, and skipping the scratch-heap spill and the dedup " +
			"projection, removes the per-query overheads while returning identical results",
		Header: []string{"query", "class", "tier", "rows", "tiered ms", "tier3 ms", "speedup"},
	}
	battery, err := fastpathBattery(snap)
	if err != nil {
		return nil, nil, err
	}
	var results []FastpathResult
	for _, e := range battery {
		p, err := pattern.Parse(e.text)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e.name, err)
		}
		plan, err := exec.BuildPlanSnapConfig(snap, p, exec.DPS, exec.PlanConfig{})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e.name, err)
		}
		tiered, err := r.timeTiered(snap, p, exec.PlanConfig{})
		if err != nil {
			return nil, nil, fmt.Errorf("%s tiered: %w", e.name, err)
		}
		forced, err := r.timeTiered(snap, p, exec.PlanConfig{NoFastPath: true})
		if err != nil {
			return nil, nil, fmt.Errorf("%s forced: %w", e.name, err)
		}
		if tiered.Rows != forced.Rows {
			return nil, nil, fmt.Errorf("bench: %s row counts disagree: tiered %d, forced %d",
				e.name, tiered.Rows, forced.Rows)
		}
		index := ""
		if plan.Fast != nil {
			index = plan.Fast.Index
		}
		res := FastpathResult{
			Name:     e.name,
			Pattern:  e.text,
			Dataset:  s.Name,
			Class:    e.class,
			Tier:     plan.Tier(),
			Rows:     tiered.Rows,
			TieredMS: tiered.ElapsedMS,
			Tier3MS:  forced.ElapsedMS,
			Index:    index,
		}
		if res.TieredMS > 0 {
			res.Speedup = res.Tier3MS / res.TieredMS
		}
		results = append(results, res)
		rep.AddRow(e.name, e.class, fmt.Sprint(res.Tier), fmt.Sprint(res.Rows),
			fmt.Sprintf("%.3f", res.TieredMS), fmt.Sprintf("%.3f", res.Tier3MS),
			fmt.Sprintf("%.1fx", res.Speedup))
	}
	return rep, results, nil
}
