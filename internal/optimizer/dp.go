package optimizer

import (
	"fmt"
	"math/bits"
)

// OptimizeDP selects an R-join order by dynamic programming over left-deep
// trees (Section 4.1): the first step is an HPSJ between two base tables;
// every later step is a full filter+fetch R-join against a base table, or a
// selection when both sides of the condition are already bound.
func OptimizeDP(b *Binding, params CostParams) (*Plan, error) {
	pat := b.Pattern
	m := pat.NumEdges()
	if m > 30 {
		return nil, patternErrorf("optimizer: pattern with %d edges too large for DP", m)
	}
	full := (uint32(1) << m) - 1

	type state struct {
		cost float64
		rows float64
		prev uint32
		step Step
		set  bool
	}
	states := make(map[uint32]*state, 1<<m)

	// Node masks per edge for quick bound-set computation.
	nodeMask := make([]uint32, m)
	for e, pe := range pat.Edges {
		nodeMask[e] = 1<<uint(pe.From) | 1<<uint(pe.To)
	}
	boundOf := func(mask uint32) uint32 {
		var v uint32
		for e := 0; e < m; e++ {
			if mask&(1<<uint(e)) != 0 {
				v |= nodeMask[e]
			}
		}
		return v
	}

	// Seed: one HPSJ per edge.
	for e := 0; e < m; e++ {
		mask := uint32(1) << uint(e)
		states[mask] = &state{
			cost: params.hpsjCost(b.WCount[e], b.JS[e]),
			rows: b.JS[e],
			step: Step{Kind: StepHPSJ, Edges: []int{e}},
			set:  true,
		}
	}
	// Seed: one WCOJ step per cyclic core, competing against every binary
	// path to the same edge set (the seed's rows are the same independence
	// estimate a binary path computes, so downstream costs compose
	// identically).
	for _, s := range wcojSeeds(b, params) {
		cur := states[s.mask]
		if cur == nil || !cur.set || s.cost < cur.cost {
			states[s.mask] = &state{
				cost: s.cost,
				rows: s.rows,
				step: Step{Kind: StepWCOJ, Edges: s.edges, VarOrder: s.order},
				set:  true,
			}
		}
	}

	// Expand masks in ascending popcount order.
	masks := make([]uint32, 0, 1<<m)
	for mask := uint32(1); mask <= full; mask++ {
		masks = append(masks, mask)
	}
	// Masks are naturally processed in increasing numeric order; ensure
	// popcount monotonicity by iterating popcount levels.
	for level := 1; level < m; level++ {
		for _, mask := range masks {
			if bits.OnesCount32(mask) != level {
				continue
			}
			st := states[mask]
			if st == nil || !st.set {
				continue
			}
			bound := boundOf(mask)
			for e := 0; e < m; e++ {
				bit := uint32(1) << uint(e)
				if mask&bit != 0 {
					continue
				}
				pe := pat.Edges[e]
				fromBound := bound&(1<<uint(pe.From)) != 0
				toBound := bound&(1<<uint(pe.To)) != 0
				if !fromBound && !toBound {
					continue // left-deep plans extend the bound set only
				}
				var cost, rows float64
				var step Step
				switch {
				case fromBound && toBound:
					rows = st.rows * b.sel(e)
					cost = st.cost + params.selectionCost(st.rows, 2)
					step = Step{Kind: StepSelection, Edges: []int{e}}
				case fromBound:
					rows = st.rows * ratio(b.JS[e], b.Ext[pe.From]) // Eq. 11
					cost = st.cost + params.filterCost(st.rows, 1) + params.fetchCost(st.rows, rows)
					step = Step{Kind: StepJoinFilterFetch, Edges: []int{e}}
				default: // toBound
					rows = st.rows * ratio(b.JS[e], b.Ext[pe.To]) // Eq. 12
					cost = st.cost + params.filterCost(st.rows, 1) + params.fetchCost(st.rows, rows)
					step = Step{Kind: StepJoinFilterFetch, Edges: []int{e}}
				}
				next := mask | bit
				cur := states[next]
				if cur == nil {
					cur = &state{}
					states[next] = cur
				}
				if !cur.set || cost < cur.cost {
					cur.cost, cur.rows, cur.prev, cur.step, cur.set = cost, rows, mask, step, true
				}
			}
		}
	}

	final := states[full]
	if final == nil || !final.set {
		return nil, patternErrorf("optimizer: DP found no complete plan (pattern disconnected?)")
	}
	// Reconstruct, annotating each step with its cumulative estimates.
	var rev []Step
	for mask := full; mask != 0; {
		st := states[mask]
		step := st.step
		step.EstCost, step.EstRows = st.cost, st.rows
		rev = append(rev, step)
		mask = st.prev
	}
	plan := &Plan{
		Binding:       b,
		EstimatedCost: final.cost,
		EstimatedRows: final.rows,
		Algorithm:     "DP",
	}
	for i := len(rev) - 1; i >= 0; i-- {
		plan.Steps = append(plan.Steps, rev[i])
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: DP produced invalid plan: %w", err)
	}
	return plan, nil
}

// ratio returns num/den, or 0 for an empty denominator (an empty extent
// makes the whole result empty).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
