// Package optimizer implements the paper's query optimization (Section 4):
// a cost model with the I/O parameters of Table 1 and the size estimates of
// Eq. 10–12, plus two plan-selection algorithms producing left-deep plans:
//
//   - DP (Section 4.1): dynamic programming over R-join orders only.
//   - DPS (Section 4.2): dynamic programming that interleaves R-joins with
//     R-semijoins via statuses (E, L, B_in, B_out) and three move kinds —
//     Filter-move, Fetch-move, and R-join-move.
package optimizer

import (
	"errors"
	"fmt"
	"slices"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

// ErrPattern marks planning failures the pattern itself causes: a label
// the data graph lacks, or a pattern too large or too disconnected for the
// chosen planner. Any other error from Bind or a planner — a
// closed database or a failed page read while binding, a planner producing
// an invalid plan — is not the query's fault. Match with errors.Is.
var ErrPattern = errors.New("optimizer: pattern cannot be planned")

// patternError is an ErrPattern with its own message.
type patternError struct{ msg string }

func (e *patternError) Error() string        { return e.msg }
func (e *patternError) Is(target error) bool { return target == ErrPattern }

func patternErrorf(format string, args ...any) error {
	return &patternError{msg: fmt.Sprintf(format, args...)}
}

// Binding resolves a pattern against a database: pattern nodes to data
// labels, pattern edges to operator conditions, and the statistics the cost
// model needs (gathered once so planning itself is error-free and fast).
type Binding struct {
	Pattern *pattern.Pattern
	// Labels maps each pattern node to its data-graph label.
	Labels []graph.Label
	// Conds maps each pattern edge to an operator condition.
	Conds []rjoin.Cond

	// Ext[i] is |ext(X_i)| per pattern node.
	Ext []float64
	// JS[e] estimates |T_X ⋈ T_Y| per pattern edge (clamped to DF·DT).
	JS []float64
	// DF[e] = |π_X(T_X ⋈ T_Y)|, DT[e] = |π_Y(T_X ⋈ T_Y)| per edge.
	DF, DT []float64
	// WCount[e] = |W(X, Y)| per edge.
	WCount []float64
}

// Bind resolves p against db and collects statistics. It fails when a
// pattern label does not occur in the data graph.
//
// Per-edge join sizes and W counts come from the snapshot's fan-signature
// table (maintained incrementally; exactly the values the JoinSize /
// Centers scans would compute) so binding pays no W-table reads for them;
// the distinct projections are the lengths of the snapshot's memoized
// projection lists, which successor epochs inherit.
func Bind(db *gdb.Snap, p *pattern.Pattern) (*Binding, error) {
	g := db.Graph()
	sig := db.Signature()
	b := &Binding{
		Pattern: p,
		Labels:  make([]graph.Label, p.NumNodes()),
		Conds:   make([]rjoin.Cond, p.NumEdges()),
		Ext:     make([]float64, p.NumNodes()),
		JS:      make([]float64, p.NumEdges()),
		DF:      make([]float64, p.NumEdges()),
		DT:      make([]float64, p.NumEdges()),
		WCount:  make([]float64, p.NumEdges()),
	}
	for i, name := range p.Nodes {
		l := g.Labels().Lookup(name)
		if l == graph.InvalidLabel {
			return nil, patternErrorf("optimizer: label %q not in data graph", name)
		}
		b.Labels[i] = l
		b.Ext[i] = float64(g.ExtentSize(l))
	}
	for ei, e := range p.Edges {
		b.Conds[ei] = rjoin.Cond{
			FromNode:  e.From,
			ToNode:    e.To,
			FromLabel: b.Labels[e.From],
			ToLabel:   b.Labels[e.To],
		}
		ps := sig.Pair(b.Labels[e.From], b.Labels[e.To])
		df, err := db.DistinctFrom(b.Labels[e.From], b.Labels[e.To])
		if err != nil {
			return nil, err
		}
		dt, err := db.DistinctTo(b.Labels[e.From], b.Labels[e.To])
		if err != nil {
			return nil, err
		}
		b.JS[ei] = float64(ps.JoinSize)
		if ddt := float64(df) * float64(dt); b.JS[ei] > ddt {
			b.JS[ei] = ddt // duplicate-covered pairs cannot exceed df·dt
		}
		b.DF[ei] = float64(df)
		b.DT[ei] = float64(dt)
		b.WCount[ei] = float64(ps.Centers)
	}
	return b, nil
}

// SameStats reports whether o, a binding of the same pattern, carries
// exactly b's statistics — the planners' whole input besides the pattern,
// so equal statistics mean an equal plan.
func (b *Binding) SameStats(o *Binding) bool {
	return slices.Equal(b.Ext, o.Ext) && slices.Equal(b.JS, o.JS) &&
		slices.Equal(b.DF, o.DF) && slices.Equal(b.DT, o.DT) && slices.Equal(b.WCount, o.WCount)
}

// sel returns the R-join selectivity of edge e (Eq. 10's second factor).
func (b *Binding) sel(e int) float64 {
	d := b.Ext[b.Pattern.Edges[e].From] * b.Ext[b.Pattern.Edges[e].To]
	if d == 0 {
		return 0
	}
	return b.JS[e] / d
}

// semiSelFrom returns the fraction of ext(X) surviving the X-side semijoin.
func (b *Binding) semiSelFrom(e int) float64 {
	d := b.Ext[b.Pattern.Edges[e].From]
	if d == 0 {
		return 0
	}
	return b.DF[e] / d
}

// semiSelTo returns the fraction of ext(Y) surviving the Y-side semijoin.
func (b *Binding) semiSelTo(e int) float64 {
	d := b.Ext[b.Pattern.Edges[e].To]
	if d == 0 {
		return 0
	}
	return b.DT[e] / d
}
