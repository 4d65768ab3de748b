package optimizer

// CostParams holds the I/O cost parameters of Table 1, in abstract page-
// access units. The planners only compare plans against each other, so the
// absolute scale is irrelevant; the ratios steer order selection.
type CostParams struct {
	// SearchB is IO_B: one search over a B+-tree (index height).
	SearchB float64
	// Scan is IO_SC: scanning one page of a file.
	Scan float64
	// CodeFetch is the cost of retrieving one node's graph codes from a
	// base table (after the IO_B search).
	CodeFetch float64
	// IndexPerNode is IO^X_{X→Y} / IO^Y_{X→Y}: the average cost of
	// producing one node from the cluster-based R-join index.
	IndexPerNode float64
	// CPU is the per-row in-memory processing cost (intersections,
	// hashing); small relative to a page access.
	CPU float64
}

// DefaultCostParams returns parameters calibrated against the storage
// engine's measured per-row page traffic: a semijoin filter costs ≈3
// logical accesses per row (B+-tree descent plus a code record read), a
// fetch costs ≈2 logical accesses per produced tuple (center set plus
// cluster record reads, amortised over clustered leaves), and every step
// re-materialises its temporal table (the CPU/spill share per row).
func DefaultCostParams() CostParams {
	return CostParams{
		SearchB:      2,
		Scan:         1,
		CodeFetch:    1,
		IndexPerNode: 2,
		CPU:          0.05,
	}
}

// filterCost is one shared semijoin scan over rows temporal rows with
// nConds conditions: one code retrieval per row plus per-condition
// intersections (Remark 3.1: the retrieval is shared).
func (c CostParams) filterCost(rows float64, nConds int) float64 {
	return (c.SearchB+c.CodeFetch)*rows + c.CPU*rows*float64(nConds)
}

// fetchCost is the Fetch step of HPSJ+: producing outRows result tuples
// from the cluster index (Eq. 11/12's second term).
func (c CostParams) fetchCost(inRows, outRows float64) float64 {
	return c.IndexPerNode*outRows + c.CPU*inRows
}

// selectionCost is a self R-join over rows tuples; uncachedSides ∈ {0,1,2}
// counts the condition sides whose graph codes are not already cached
// (each uncached side costs a base-table code retrieval per row).
func (c CostParams) selectionCost(rows float64, uncachedSides int) float64 {
	return float64(uncachedSides)*(c.SearchB+c.CodeFetch)*rows + c.CPU*rows
}

// hpsjCost is an R-join of two base tables (Algorithm 1): one W-table
// search, two cluster lookups per center, and per-output-tuple production.
func (c CostParams) hpsjCost(centers, outRows float64) float64 {
	return c.SearchB + 2*c.SearchB*centers + c.IndexPerNode*outRows
}
