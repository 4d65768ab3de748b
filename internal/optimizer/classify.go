package optimizer

import (
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

// Plan tiers (see DESIGN.md "One read path; counted-I/O reference mode")
// label a plan's shape for -explain, StepTrace and the /stats counters:
//
//	tier 1 — index-only shape: a head step plus fetches from its bindings
//	         (single edges, stars, point probes).
//	tier 2 — fan-signature prefilter: the pattern is provably empty; the
//	         executor answers it with zero operator work.
//	tier 3 — any other DP/DPS/WCOJ plan.
//
// Only tier 2 executes differently. Tiers 1 and 3 run the same operators
// over the same decoded read path; the label survives because the two
// shapes have very different cost profiles and operators want them counted
// apart.

// FastPathKind discriminates the fast-path classifications.
type FastPathKind int

const (
	// FPImpossible marks a pattern the fan-signature prefilter proved
	// empty: some edge's label pair has no W-table centers.
	FPImpossible FastPathKind = iota
	// FPEdge marks an index-only plan: a single-edge pattern, a point-
	// reachability probe, or a star whose satellite edges all fetch from
	// the head step's bindings.
	FPEdge
)

// FastPath is a plan's tier label.
type FastPath struct {
	Kind FastPathKind
	// Probe marks a point-reachability probe: a single-edge pattern whose
	// two label extents are singletons.
	Probe bool
	// Index names the index structure that answers the query, for
	// -explain and StepTrace.
	Index string
}

// Describe renders the classification for -explain output.
func (f *FastPath) Describe() string {
	if f.Kind == FPImpossible {
		return "impossible pattern (" + f.Index + ")"
	}
	return "index-only (" + f.Index + ")"
}

// Classify labels an optimized plan tier 1 when its shape is index-only:
//
//   - the head step is an HPSJ, a single-edge WCOJ, or a semijoin group,
//     and
//   - every remaining step is a Fetch whose bound side was bound by the
//     head step (no chained fetches) — covering single-edge patterns and
//     stars around the head's bindings.
//
// Selection and JoinFilterFetch steps, multi-edge WCOJ cores, and fetch
// chains stay tier 3. The label is descriptive only: the executor runs
// every plan the same way.
func Classify(p *Plan) {
	if p.Fast != nil || len(p.Steps) == 0 {
		return
	}
	pat := p.Binding.Pattern
	head := p.Steps[0]
	bound0 := make([]bool, pat.NumNodes())
	var index string
	switch head.Kind {
	case StepHPSJ:
		e := pat.Edges[head.Edges[0]]
		bound0[e.From], bound0[e.To] = true, true
		index = "W-table center list + cluster index"
	case StepWCOJ:
		if len(head.Edges) != 1 {
			return
		}
		e := pat.Edges[head.Edges[0]]
		bound0[e.From], bound0[e.To] = true, true
		index = "distinct projections + cluster index"
	case StepSemijoinGroup:
		bound0[head.Node] = true
		index = "graph codes + W-table + cluster index"
	default:
		return
	}
	bound := make([]bool, len(bound0))
	copy(bound, bound0)
	for _, s := range p.Steps[1:] {
		if s.Kind != StepFetch {
			return
		}
		e := pat.Edges[s.Edges[0]]
		var bs, other int
		switch {
		case bound[e.From] && !bound[e.To]:
			bs, other = e.From, e.To
		case bound[e.To] && !bound[e.From]:
			bs, other = e.To, e.From
		default:
			return
		}
		if !bound0[bs] {
			return
		}
		bound[other] = true
	}
	probe := false
	if pat.NumEdges() == 1 {
		e := pat.Edges[0]
		if p.Binding.Ext[e.From] == 1 && p.Binding.Ext[e.To] == 1 {
			probe = true
			index += " (point probe)"
		}
	}
	p.Fast = &FastPath{Kind: FPEdge, Probe: probe, Index: index}
}

// Prefilter is the tier-2 admission check, run before Bind: it resolves
// the pattern's labels (failing with Bind's error for an unknown label)
// and consults the fan-signature table for every edge. A pair (X, Y)
// with no signature entry has W(X, Y) = ∅, and by the index invariant
// (Section 3.2: x ⇝ y between distinct labels iff some W(X, Y) center
// covers the pair) the edge — hence the whole pattern — has no matches.
// For such patterns Prefilter returns a single-StepFastPath plan the
// executor answers with an empty, correctly-columned table in
// O(pattern); otherwise it returns (nil, nil) and planning proceeds.
func Prefilter(db *gdb.Snap, p *pattern.Pattern) (*Plan, error) {
	sig := db.Signature()
	g := db.Graph()
	labels := make([]graph.Label, p.NumNodes())
	ext := make([]float64, p.NumNodes())
	for i, name := range p.Nodes {
		l := g.Labels().Lookup(name)
		if l == graph.InvalidLabel {
			return nil, patternErrorf("optimizer: label %q not in data graph", name)
		}
		labels[i] = l
		ext[i] = float64(g.ExtentSize(l))
	}
	conds := make([]rjoin.Cond, p.NumEdges())
	allEdges := make([]int, p.NumEdges())
	impossible := false
	for ei, e := range p.Edges {
		conds[ei] = rjoin.Cond{
			FromNode:  e.From,
			ToNode:    e.To,
			FromLabel: labels[e.From],
			ToLabel:   labels[e.To],
		}
		allEdges[ei] = ei
		if sig.Pair(labels[e.From], labels[e.To]).Centers == 0 {
			impossible = true
		}
	}
	if !impossible {
		return nil, nil
	}
	// A minimal binding: labels, conditions, and extents only — the plan
	// never reaches a cost model, so no statistics scans are paid.
	b := &Binding{
		Pattern: p,
		Labels:  labels,
		Conds:   conds,
		Ext:     ext,
		JS:      make([]float64, p.NumEdges()),
		DF:      make([]float64, p.NumEdges()),
		DT:      make([]float64, p.NumEdges()),
		WCount:  make([]float64, p.NumEdges()),
	}
	return &Plan{
		Binding:   b,
		Steps:     []Step{{Kind: StepFastPath, Edges: allEdges}},
		Algorithm: "fastpath",
		Fast:      &FastPath{Kind: FPImpossible, Index: "fan-signature prefilter"},
	}, nil
}
