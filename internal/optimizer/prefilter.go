package optimizer

import (
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

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
	}, nil
}
