package optimizer

import (
	"fmt"
	"math/bits"
)

// A DPS status is the four-element tuple (E, L, B_in, B_out) of Section
// 4.2. E is the set of pattern edges whose Fetch (or R-join/selection) is
// done; B_in/B_out are the pattern nodes whose in/out graph codes are
// cached because a Filter-move scanned them; L — the set of bound nodes —
// is derived: L = endpoints(E) ∪ B_in ∪ B_out.
//
// The packed key fits 16 edges and 16 nodes.
type statusKey uint64

func makeKey(e, bin, bout uint32) statusKey {
	return statusKey(e) | statusKey(bin)<<16 | statusKey(bout)<<32
}

func (k statusKey) parts() (e, bin, bout uint32) {
	return uint32(k & 0xFFFF), uint32(k >> 16 & 0xFFFF), uint32(k >> 32 & 0xFFFF)
}

// moveKind discriminates the three DPS moves.
type moveKind int

const (
	moveNone   moveKind = iota
	moveRJoin           // HPSJ between two base tables; only from S0
	moveFilter          // R-semijoin group sharing one scan (Remark 3.1)
	moveFetch           // Fetch of one included edge (or selection when both sides bound)
)

type move struct {
	kind    moveKind
	edge    int   // moveRJoin / moveFetch
	node    int   // moveFilter: the scanned column
	outSide bool  // moveFilter: out-codes vs in-codes
	edges   []int // moveFilter: the semijoin group
	isSel   bool  // moveFetch: both sides were bound (selection)
}

// OptimizeDPS selects a plan by interleaving R-joins with R-semijoins
// (Section 4.2): dynamic programming over statuses with Filter-moves,
// Fetch-moves, and R-join-moves. Every move adds exactly one element to the
// status, so statuses are processed level by level.
func OptimizeDPS(b *Binding, params CostParams) (*Plan, error) {
	pat := b.Pattern
	m := pat.NumEdges()
	n := pat.NumNodes()
	if m > 16 || n > 16 {
		return nil, patternErrorf("optimizer: pattern with %d nodes/%d edges too large for DPS", n, m)
	}
	fullE := (uint32(1) << m) - 1

	type info struct {
		cost float64
		pred statusKey
		mv   move
	}
	states := map[statusKey]*info{0: {}}
	levels := make([][]statusKey, m+2*n+1)
	levels[0] = []statusKey{0}

	level := func(k statusKey) int {
		e, bin, bout := k.parts()
		return bits.OnesCount32(e) + bits.OnesCount32(bin) + bits.OnesCount32(bout)
	}
	relax := func(from statusKey, to statusKey, cost float64, mv move) {
		cur := states[to]
		if cur == nil {
			states[to] = &info{cost: cost, pred: from, mv: mv}
			l := level(to)
			levels[l] = append(levels[l], to)
			return
		}
		if cost < cur.cost {
			cur.cost, cur.pred, cur.mv = cost, from, mv
		}
	}

	// rowsOf estimates the intermediate result size of a status from the
	// bound extents, the join selectivities of E, and the semijoin
	// selectivities of every included-but-unfetched condition. The estimate
	// is path-independent, which makes the DP sound.
	rowsOf := func(e, bin, bout uint32) float64 {
		v := bin | bout
		for ei := 0; ei < m; ei++ {
			if e&(1<<uint(ei)) != 0 {
				pe := pat.Edges[ei]
				v |= 1<<uint(pe.From) | 1<<uint(pe.To)
			}
		}
		if v == 0 {
			return 1
		}
		rows := 1.0
		for x := 0; x < n; x++ {
			if v&(1<<uint(x)) != 0 {
				rows *= b.Ext[x]
			}
		}
		for ei := 0; ei < m; ei++ {
			pe := pat.Edges[ei]
			if e&(1<<uint(ei)) != 0 {
				rows *= b.sel(ei)
				continue
			}
			if bout&(1<<uint(pe.From)) != 0 {
				rows *= b.semiSelFrom(ei)
			}
			if bin&(1<<uint(pe.To)) != 0 {
				rows *= b.semiSelTo(ei)
			}
		}
		return rows
	}

	for l := 0; l < len(levels); l++ {
		for _, key := range levels[l] {
			st := states[key]
			e, bin, bout := key.parts()
			rows := rowsOf(e, bin, bout)

			bound := bin | bout
			for ei := 0; ei < m; ei++ {
				if e&(1<<uint(ei)) != 0 {
					pe := pat.Edges[ei]
					bound |= 1<<uint(pe.From) | 1<<uint(pe.To)
				}
			}

			if key == 0 {
				// R-join-moves: only from the initial status.
				for ei := 0; ei < m; ei++ {
					cost := st.cost + params.hpsjCost(b.WCount[ei], b.JS[ei])
					relax(key, makeKey(1<<uint(ei), 0, 0), cost, move{kind: moveRJoin, edge: ei})
				}
			}

			// Filter-moves: pick a label X (bound, or any from S0) and a
			// code side; the move appends every remaining semijoin on that
			// side of X in one shared scan.
			for x := 0; x < n; x++ {
				if bound != 0 && bound&(1<<uint(x)) == 0 {
					continue // X must be in L when L ≠ ∅
				}
				for _, outSide := range [2]bool{true, false} {
					var bmask uint32
					if outSide {
						bmask = bout
					} else {
						bmask = bin
					}
					if bmask&(1<<uint(x)) != 0 {
						continue // this side of X already cached
					}
					var q []int
					for ei := 0; ei < m; ei++ {
						if e&(1<<uint(ei)) != 0 {
							continue
						}
						pe := pat.Edges[ei]
						if (outSide && pe.From == x) || (!outSide && pe.To == x) {
							q = append(q, ei)
						}
					}
					if len(q) == 0 {
						continue
					}
					basis := rows
					if bound == 0 {
						basis = b.Ext[x] // first move scans the base table
					}
					nbin, nbout := bin, bout
					if outSide {
						nbout |= 1 << uint(x)
					} else {
						nbin |= 1 << uint(x)
					}
					cost := st.cost + params.filterCost(basis, len(q))
					relax(key, makeKey(e, nbin, nbout), cost,
						move{kind: moveFilter, node: x, outSide: outSide, edges: q})
				}
			}

			// Fetch-moves: any unfetched edge whose filter is included.
			for ei := 0; ei < m; ei++ {
				if e&(1<<uint(ei)) != 0 {
					continue
				}
				pe := pat.Edges[ei]
				fromCached := bout&(1<<uint(pe.From)) != 0
				toCached := bin&(1<<uint(pe.To)) != 0
				if !fromCached && !toCached {
					continue
				}
				ne := e | 1<<uint(ei)
				nrows := rowsOf(ne, bin, bout)
				fromBound := bound&(1<<uint(pe.From)) != 0
				toBound := bound&(1<<uint(pe.To)) != 0
				var cost float64
				isSel := fromBound && toBound
				if isSel {
					uncached := 0
					if !fromCached {
						uncached++
					}
					if !toCached {
						uncached++
					}
					cost = st.cost + params.selectionCost(rows, uncached)
				} else {
					cost = st.cost + params.fetchCost(rows, nrows)
				}
				relax(key, makeKey(ne, bin, bout), cost,
					move{kind: moveFetch, edge: ei, isSel: isSel})
			}
		}
	}

	// Pick the cheapest complete status. Cost ties are broken by the
	// smaller status key: map iteration order is randomized per range, and
	// equal-cost statuses are common (e.g. the two directions of a single
	// edge), so without the tie-break two optimizer calls on the same
	// binding could return differently-ordered plans.
	var best statusKey
	bestInfo := (*info)(nil)
	for key, inf := range states {
		e, _, _ := key.parts()
		if e != fullE {
			continue
		}
		if bestInfo == nil || inf.cost < bestInfo.cost ||
			(inf.cost == bestInfo.cost && key < best) {
			best, bestInfo = key, inf
		}
	}
	if bestInfo == nil {
		return nil, patternErrorf("optimizer: DPS found no complete plan")
	}

	// Reconstruct the move chain, annotating each step with the cumulative
	// cost and estimated rows of the status it reaches.
	type annMove struct {
		mv   move
		cost float64
		rows float64
	}
	var movesRev []annMove
	for key := best; key != 0; {
		inf := states[key]
		movesRev = append(movesRev, annMove{mv: inf.mv, cost: inf.cost, rows: rowsOf(key.parts())})
		key = inf.pred
	}
	plan := &Plan{
		Binding:       b,
		EstimatedCost: bestInfo.cost,
		EstimatedRows: rowsOf(best.parts()),
		Algorithm:     "DPS",
	}
	for i := len(movesRev) - 1; i >= 0; i-- {
		mv := movesRev[i].mv
		var step Step
		switch mv.kind {
		case moveRJoin:
			step = Step{Kind: StepHPSJ, Edges: []int{mv.edge}}
		case moveFilter:
			step = Step{
				Kind:    StepSemijoinGroup,
				Edges:   mv.edges,
				Node:    mv.node,
				OutSide: mv.outSide,
			}
		case moveFetch:
			kind := StepFetch
			if mv.isSel {
				kind = StepSelection
			}
			step = Step{Kind: kind, Edges: []int{mv.edge}}
		}
		step.EstCost, step.EstRows = movesRev[i].cost, movesRev[i].rows
		plan.Steps = append(plan.Steps, step)
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: DPS produced invalid plan: %w", err)
	}
	return plan, nil
}
