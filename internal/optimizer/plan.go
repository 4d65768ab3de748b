package optimizer

import (
	"fmt"
	"strings"
)

// StepKind discriminates executor steps.
type StepKind int

const (
	// StepHPSJ is an R-join of two base tables (Algorithm 1); always the
	// first step of a plan when present.
	StepHPSJ StepKind = iota
	// StepSemijoinGroup applies one or more R-semijoins that bind the same
	// temporal column, sharing a single scan and one graph-code retrieval
	// per row (Remark 3.1). When it is the first step, the temporal table
	// is the bound label's base table.
	StepSemijoinGroup
	// StepFetch completes an HPSJ+ R-join whose filter was already applied
	// by an earlier StepSemijoinGroup (Algorithm 2, Fetch).
	StepFetch
	// StepJoinFilterFetch is a full HPSJ+ R-join — filter immediately
	// followed by fetch — as used by the DP (join-only) planner.
	StepJoinFilterFetch
	// StepSelection processes a self R-join (Eq. 5): a condition whose two
	// pattern nodes are both already bound.
	StepSelection
	// StepWCOJ evaluates a set of edges (a cyclic core, or the whole
	// pattern) as one worst-case-optimal multiway R-join, binding the
	// nodes of VarOrder by leapfrog intersection; always the first step of
	// a plan when present.
	StepWCOJ
	// StepFastPath is the single step of a plan the tier-2 fan-signature
	// prefilter proved empty (some pattern edge (X, Y) has W(X, Y) = ∅):
	// the executor answers it with an empty, correctly-columned result in
	// O(pattern) with no operator work.
	StepFastPath
)

func (k StepKind) String() string {
	switch k {
	case StepHPSJ:
		return "hpsj"
	case StepSemijoinGroup:
		return "semijoin"
	case StepFetch:
		return "fetch"
	case StepJoinFilterFetch:
		return "join"
	case StepSelection:
		return "selection"
	case StepWCOJ:
		return "wcoj"
	case StepFastPath:
		return "fastpath"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step is one executor operation.
type Step struct {
	Kind StepKind
	// Edges holds the pattern edge indexes the step processes. A
	// SemijoinGroup may hold several; every other kind holds exactly one.
	Edges []int
	// Node is the bound pattern node of a SemijoinGroup (the column whose
	// graph codes the shared scan retrieves).
	Node int
	// OutSide reports which code side a SemijoinGroup reads: true for
	// out-codes (conditions Node→Y), false for in-codes (conditions
	// X→Node).
	OutSide bool
	// VarOrder is a WCOJ step's global variable-binding order (pattern
	// node indexes); empty for every other kind.
	VarOrder []int
	// EstCost/EstRows are the cost model's cumulative cost and estimated
	// temporal-table rows after this step, filled during plan
	// reconstruction so -explain can show where a plan expects to spend.
	EstCost, EstRows float64
}

// Plan is an optimized left-deep execution plan.
type Plan struct {
	Binding *Binding
	Steps   []Step
	// EstimatedCost is the cost model's total for the plan.
	EstimatedCost float64
	// EstimatedRows is the estimated final result size.
	EstimatedRows float64
	// Algorithm names the planner that produced the plan ("DP" or "DPS").
	Algorithm string
	// Fast is the plan's shape label, set by Classify (tier 1) or the
	// prefilter (tier 2); nil labels a general pipeline plan (tier 3). Only
	// the tier-2 label changes execution (a proven-empty pattern runs no
	// operator); tiers 1 and 3 run the same operators over the same read
	// path. See classify.go.
	Fast *FastPath
	// Reference marks a plan the executor must run in the paper's
	// counted-I/O mode (pool reads per access, per-step spill, hash-dedup
	// projection) rather than over the decoded read path. Set only by
	// exec.PlanConfig{NoFastPath: true}.
	Reference bool
}

// Tier returns the plan's descriptive label for -explain and /stats: 1 for
// an index-only shape (see Classify), 2 for a pattern the fan-signature
// prefilter proved empty, 3 for everything else.
func (p *Plan) Tier() int {
	switch {
	case p.Fast == nil:
		return 3
	case p.Fast.Kind == FPImpossible:
		return 2
	default:
		return 1
	}
}

// String renders the plan one step per line.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s plan (est cost %.1f, est rows %.1f)\n", p.Algorithm, p.EstimatedCost, p.EstimatedRows)
	switch {
	case p.Fast != nil:
		fmt.Fprintf(&sb, "  tier %d: %s\n", p.Tier(), p.Fast.Describe())
	case p.Reference:
		sb.WriteString("  tier 3: operator pipeline, counted-I/O reference mode\n")
	default:
		sb.WriteString("  tier 3: operator pipeline\n")
	}
	for i, s := range p.Steps {
		fmt.Fprintf(&sb, "  %2d. %-9s", i+1, s.Kind)
		switch s.Kind {
		case StepSemijoinGroup:
			side := "out"
			if !s.OutSide {
				side = "in"
			}
			fmt.Fprintf(&sb, " on %s (%s-codes):", p.Binding.Pattern.Nodes[s.Node], side)
		case StepWCOJ:
			sb.WriteString(" order")
			for j, v := range s.VarOrder {
				sep := " "
				if j > 0 {
					sep = "<"
				}
				fmt.Fprintf(&sb, "%s%s", sep, p.Binding.Pattern.Nodes[v])
			}
			sb.WriteString(", edges:")
		}
		for _, e := range s.Edges {
			pe := p.Binding.Pattern.Edges[e]
			fmt.Fprintf(&sb, " %s->%s", p.Binding.Pattern.Nodes[pe.From], p.Binding.Pattern.Nodes[pe.To])
		}
		if s.EstCost > 0 || s.EstRows > 0 {
			fmt.Fprintf(&sb, "  [cost %.1f, rows %.1f]", s.EstCost, s.EstRows)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Validate checks plan structural invariants: every pattern edge is fetched
// or joined exactly once, steps only reference bound columns, and HPSJ only
// appears first. It returns nil for plans produced by the planners and is
// used by tests and the executor's defensive checks.
func (p *Plan) Validate() error {
	pat := p.Binding.Pattern
	done := make([]bool, pat.NumEdges())
	bound := make([]bool, pat.NumNodes())
	anyBound := false

	for si, s := range p.Steps {
		switch s.Kind {
		case StepHPSJ:
			if si != 0 {
				return fmt.Errorf("plan: HPSJ at step %d (only valid first)", si+1)
			}
			if len(s.Edges) != 1 {
				return fmt.Errorf("plan: HPSJ with %d edges", len(s.Edges))
			}
			e := pat.Edges[s.Edges[0]]
			done[s.Edges[0]] = true
			bound[e.From], bound[e.To] = true, true
			anyBound = true
		case StepSemijoinGroup:
			if len(s.Edges) == 0 {
				return fmt.Errorf("plan: empty semijoin group at step %d", si+1)
			}
			if anyBound && !bound[s.Node] {
				return fmt.Errorf("plan: semijoin on unbound node %d at step %d", s.Node, si+1)
			}
			for _, e := range s.Edges {
				if done[e] {
					return fmt.Errorf("plan: semijoin of completed edge %d at step %d", e, si+1)
				}
				side := pat.Edges[e].From
				if !s.OutSide {
					side = pat.Edges[e].To
				}
				if side != s.Node {
					return fmt.Errorf("plan: semijoin group on node %d includes edge %d not incident on the declared side", s.Node, e)
				}
			}
			bound[s.Node] = true
			anyBound = true
		case StepFetch, StepJoinFilterFetch:
			if len(s.Edges) != 1 {
				return fmt.Errorf("plan: %s with %d edges", s.Kind, len(s.Edges))
			}
			e := pat.Edges[s.Edges[0]]
			if done[s.Edges[0]] {
				return fmt.Errorf("plan: edge %d completed twice", s.Edges[0])
			}
			if !bound[e.From] && !bound[e.To] {
				return fmt.Errorf("plan: %s of edge %d with no side bound", s.Kind, s.Edges[0])
			}
			if bound[e.From] && bound[e.To] {
				return fmt.Errorf("plan: %s of edge %d with both sides bound (want selection)", s.Kind, s.Edges[0])
			}
			done[s.Edges[0]] = true
			bound[e.From], bound[e.To] = true, true
		case StepWCOJ:
			if si != 0 {
				return fmt.Errorf("plan: WCOJ at step %d (only valid first)", si+1)
			}
			if len(s.Edges) == 0 || len(s.VarOrder) < 2 {
				return fmt.Errorf("plan: WCOJ with %d edges over %d variables", len(s.Edges), len(s.VarOrder))
			}
			inOrder := make([]bool, pat.NumNodes())
			for _, v := range s.VarOrder {
				if inOrder[v] {
					return fmt.Errorf("plan: WCOJ repeats node %d in variable order", v)
				}
				inOrder[v] = true
			}
			incident := make(map[int]bool, len(s.VarOrder))
			for _, e := range s.Edges {
				if done[e] {
					return fmt.Errorf("plan: edge %d completed twice", e)
				}
				pe := pat.Edges[e]
				if !inOrder[pe.From] || !inOrder[pe.To] {
					return fmt.Errorf("plan: WCOJ edge %d endpoint outside variable order %v", e, s.VarOrder)
				}
				done[e] = true
				incident[pe.From], incident[pe.To] = true, true
			}
			for _, v := range s.VarOrder {
				if !incident[v] {
					return fmt.Errorf("plan: WCOJ variable %d has no incident edge", v)
				}
				bound[v] = true
			}
			anyBound = true
		case StepFastPath:
			if si != 0 || len(p.Steps) != 1 {
				return fmt.Errorf("plan: fastpath step must be the only step")
			}
			if p.Fast == nil || p.Fast.Kind != FPImpossible {
				return fmt.Errorf("plan: fastpath step without an impossible-pattern classification")
			}
			for e := range done {
				done[e] = true
			}
			for v := range bound {
				bound[v] = true
			}
			anyBound = true
		case StepSelection:
			if len(s.Edges) != 1 {
				return fmt.Errorf("plan: selection with %d edges", len(s.Edges))
			}
			e := pat.Edges[s.Edges[0]]
			if !bound[e.From] || !bound[e.To] {
				return fmt.Errorf("plan: selection of edge %d without both sides bound", s.Edges[0])
			}
			if done[s.Edges[0]] {
				return fmt.Errorf("plan: edge %d completed twice", s.Edges[0])
			}
			done[s.Edges[0]] = true
		default:
			return fmt.Errorf("plan: unknown step kind %v", s.Kind)
		}
	}
	for e, d := range done {
		if !d {
			return fmt.Errorf("plan: edge %d never completed", e)
		}
	}
	return nil
}
