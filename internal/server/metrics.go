package server

import (
	"context"
	"errors"
	"math"
	"math/bits"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"fastmatch/internal/rjoin"
	"fastmatch/internal/storage"
)

// latencyBuckets is the number of power-of-two microsecond histogram
// buckets: bucket i counts latencies in [2^(i-1), 2^i) µs, which spans
// sub-microsecond to ~2^62 µs — far beyond any real query.
const latencyBuckets = 64

// metrics aggregates per-server counters with atomics so the query hot
// path never takes a lock.
type metrics struct {
	queries     atomic.Int64 // completed successfully
	errs        atomic.Int64 // failed for any reason
	rejected    atomic.Int64 // failed with ErrOverloaded
	deadline    atomic.Int64 // failed with context deadline/cancellation
	budgetKills atomic.Int64 // failed with ErrRowLimit/ErrBudgetExceeded
	queued      atomic.Int64 // waited for an execution slot
	planHits    atomic.Int64
	planMisses  atomic.Int64
	rows        atomic.Int64

	// Per-query resource-budget accounting (see rjoin.Budget).
	truncated   atomic.Int64 // queries whose result was cut at the limit
	imBytes     atomic.Int64 // cumulative intermediate bytes
	peakImBytes atomic.Int64 // high-water intermediate bytes of one query
	peakImRows  atomic.Int64 // high-water intermediate table rows

	// Edge-insert path (POST /insert, InsertEdges).
	edgeInserts        atomic.Int64 // edges applied (non-duplicates)
	insertDuplicates   atomic.Int64 // edges skipped as already present
	insertLabelEntries atomic.Int64 // 2-hop label entries added
	insertErrors       atomic.Int64 // failed insert requests

	// Edge-delete path (POST /delete, DeleteEdges).
	edgeDeletes        atomic.Int64 // edges removed (present before)
	deleteNoops        atomic.Int64 // absent-edge deletes skipped
	deleteLabelEntries atomic.Int64 // label entries removed + re-added
	deleteErrors       atomic.Int64 // failed delete requests

	// Operator activity (aggregated rjoin.RuntimeStats).
	operatorOps  atomic.Int64 // operator executions
	fusedFilters atomic.Int64 // plan steps a Fetch ran as list intersections
	factorised   atomic.Int64 // Fetches that left their rows factorised
	centerHits   atomic.Int64 // partner-slot hits
	centerMisses atomic.Int64 // partner-slot fills

	// Result shipping (POST /query's encode + write, after the query's own
	// latency is recorded).
	encodeNS      atomic.Int64
	responseBytes atomic.Int64

	latency [latencyBuckets]atomic.Int64
}

// recordEncode adds one response's encode-and-write time and body size.
func (m *metrics) recordEncode(d time.Duration, bytes int64) {
	m.encodeNS.Add(int64(d))
	m.responseBytes.Add(bytes)
}

// recordRuntime folds one query's operator-runtime counters into the
// server-wide metrics.
func (m *metrics) recordRuntime(rs rjoin.RuntimeStats) {
	m.operatorOps.Add(rs.Ops)
	m.fusedFilters.Add(rs.FusedFilters)
	m.factorised.Add(rs.FactorisedSteps)
	m.centerHits.Add(rs.CenterCacheHits)
	m.centerMisses.Add(rs.CenterCacheMisses)
}

func (m *metrics) recordQuery(elapsed time.Duration, rowCount int, planCached bool) {
	m.queries.Add(1)
	m.rows.Add(int64(rowCount))
	us := elapsed.Microseconds()
	if us < 0 {
		us = 0
	}
	m.latency[bits.Len64(uint64(us))].Add(1)
}

func (m *metrics) recordError(err error) {
	m.errs.Add(1)
	switch {
	case errors.Is(err, ErrOverloaded):
		m.rejected.Add(1)
	case errors.Is(err, rjoin.ErrRowLimit), errors.Is(err, rjoin.ErrBudgetExceeded):
		m.budgetKills.Add(1)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		m.deadline.Add(1)
	}
}

// recordBudget folds one query's budget accounting (successful or killed)
// into the server-wide counters.
func (m *metrics) recordBudget(b *rjoin.Budget) {
	if b == nil {
		return
	}
	if b.Truncated() {
		m.truncated.Add(1)
	}
	m.imBytes.Add(b.Bytes())
	atomicMax(&m.peakImBytes, b.Bytes())
	atomicMax(&m.peakImRows, b.PeakRows())
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// quantile returns the approximate q-quantile (0 < q < 1) of recorded
// latencies in milliseconds: the geometric midpoint of the histogram
// bucket holding the q-th sample. NaN with no samples.
func (m *metrics) quantile(q float64) float64 {
	var total int64
	var counts [latencyBuckets]int64
	for i := range m.latency {
		counts[i] = m.latency[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return math.NaN()
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > rank {
			// Bucket i covers [2^(i-1), 2^i) µs; use the geometric mid.
			if i == 0 {
				return 0.001 / 2
			}
			lo := math.Exp2(float64(i - 1))
			return lo * math.Sqrt2 / 1000
		}
	}
	return math.NaN()
}

// Stats is a point-in-time snapshot of a Server's counters.
type Stats struct {
	// Queries is the number of successfully completed queries.
	Queries int64 `json:"queries"`
	// Errors counts failed queries (including rejections and timeouts).
	Errors int64 `json:"errors"`
	// Rejections counts admission-control rejections (ErrOverloaded).
	Rejections int64 `json:"rejections"`
	// Deadline counts queries abandoned on context deadline/cancellation.
	Deadline int64 `json:"deadline"`
	// BudgetKills counts queries killed by their resource budget (typed
	// rjoin.ErrRowLimit / rjoin.ErrBudgetExceeded → HTTP 422).
	BudgetKills int64 `json:"budget_kills"`
	// TruncatedQueries counts results cut at a pushed-down row limit.
	TruncatedQueries int64 `json:"truncated_queries"`
	// IntermediateBytes is the cumulative size of the rows queries'
	// operators produced (4 bytes per cell), whether they were written out
	// or, like a Fetch's, handed to the encoder as products;
	// PeakIntermediateBytes/Rows are the largest a single query charged
	// (high-water marks, including killed queries).
	IntermediateBytes     int64 `json:"intermediate_bytes"`
	PeakIntermediateBytes int64 `json:"peak_intermediate_bytes"`
	PeakIntermediateRows  int64 `json:"peak_intermediate_rows"`
	// Queued counts queries that had to wait for an execution slot.
	Queued int64 `json:"queued"`
	// InFlight is the number of queries executing right now.
	InFlight int `json:"in_flight"`
	// MaxInFlight is the configured concurrency limit.
	MaxInFlight int `json:"max_in_flight"`
	// PlanCacheHits/Misses/Size describe the plan cache. PlanCoalesced
	// is always 0: concurrent misses each plan for themselves. The field
	// is kept for benchmark/perlayer.go.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	PlanCoalesced   int64 `json:"plan_coalesced"`
	PlanCacheSize   int   `json:"plan_cache_size"`
	// RowsReturned is the total result rows across completed queries.
	RowsReturned int64 `json:"rows_returned"`
	// EdgeInserts counts edges applied through the incremental maintenance
	// path; InsertDuplicates the no-op re-inserts, InsertLabelEntries the
	// 2-hop label entries added, InsertErrors the failed insert requests.
	EdgeInserts        int64 `json:"edge_inserts"`
	InsertDuplicates   int64 `json:"insert_duplicates"`
	InsertLabelEntries int64 `json:"insert_label_entries"`
	InsertErrors       int64 `json:"insert_errors"`
	// EdgeDeletes counts edges removed through the incremental repair
	// path; DeleteNoops the absent-edge deletes skipped, DeleteLabelEntries
	// the 2-hop label entries touched by delete repair (stale removals plus
	// re-adds), DeleteErrors the failed delete requests.
	EdgeDeletes        int64 `json:"edge_deletes"`
	DeleteNoops        int64 `json:"delete_noops"`
	DeleteLabelEntries int64 `json:"delete_label_entries"`
	DeleteErrors       int64 `json:"delete_errors"`
	// CurrentEpoch is the published snapshot epoch (increments once per
	// applied insert batch); PinnedEpochs counts live snapshot versions
	// (1 when idle: the current epoch's base pin); OldestPinnedAgeSeconds
	// is the age of the oldest still-pinned snapshot (long-running readers
	// delay page reclamation); SnapshotsRetired counts superseded
	// snapshots whose pages were recycled.
	CurrentEpoch           uint64  `json:"current_epoch"`
	PinnedEpochs           int     `json:"pinned_epochs"`
	OldestPinnedAgeSeconds float64 `json:"oldest_pinned_age_seconds"`
	SnapshotsRetired       uint64  `json:"snapshots_retired"`
	// OperatorOps counts R-join/R-semijoin operator executions.
	// FusedFilters counts the plan steps that ran as no operator of their
	// own: Selections and R-semijoin groups on the node a Fetch binds,
	// applied by that Fetch to its partner lists (rjoin.FetchFiltered).
	// FactorisedSteps counts the Fetches that kept their partner lists as
	// one more expanded column of the result instead of writing their rows
	// out (rjoin.FetchResult); a later step that reads rows writes them out.
	OperatorOps     int64 `json:"operator_ops"`
	FusedFilters    int64 `json:"fused_filters"`
	FactorisedSteps int64 `json:"factorised_steps"`
	// CenterCacheHits/Misses aggregate the queries' partner-table slot
	// lookups: a hit is a getCenters intersection and subcluster union an
	// earlier operator or query on the epoch already computed.
	CenterCacheHits   int64 `json:"center_cache_hits"`
	CenterCacheMisses int64 `json:"center_cache_misses"`
	// DecodedMemoNodes is what the current epoch's PartnerTables partner
	// tables hold — their slots, lists and the PartnerBitmaps rank bitmaps
	// of their longer lists — in 4-byte node-ID units (DecodedMemoBytes the
	// same in bytes); DecodedMemoResets counts overflows of their bound,
	// each of which dropped an epoch's tables. The decoded index they are
	// computed from is complete in every epoch and counted in none of
	// these.
	DecodedMemoNodes  int   `json:"decoded_memo_nodes"`
	DecodedMemoBytes  int   `json:"decoded_memo_bytes"`
	PartnerTables     int   `json:"partner_tables"`
	PartnerBitmaps    int   `json:"partner_bitmaps"`
	DecodedMemoResets int64 `json:"decoded_memo_resets"`
	// FilteredTables counts the current epoch's filtered tables — a
	// partner table's lists cut down by the R-semijoin groups a Fetch
	// absorbed — FilteredLists their filled slots and FilteredListBytes
	// what those lists cost; all of it is inside DecodedMemoNodes.
	FilteredTables    int `json:"filtered_tables"`
	FilteredLists     int `json:"filtered_lists"`
	FilteredListBytes int `json:"filtered_list_bytes"`
	// ProjectionScans counts full computations of a projection set
	// (π_X or π_Y of a label pair's R-join), ProjectionsInherited the
	// sets publishes carried into their successor epoch instead, and
	// ProjectionsPatched those of them whose content the batch changed.
	// ProjectionBytes is what the current epoch's memoized sets occupy:
	// one bit per node of the projected side's label each, in whole words
	// (8·⌈|ext(X)|/64⌉ bytes for a π_X).
	ProjectionScans      int64 `json:"projection_scans"`
	ProjectionsInherited int64 `json:"projections_inherited"`
	ProjectionsPatched   int64 `json:"projections_patched"`
	ProjectionBytes      int   `json:"projection_bytes"`
	// PartnerSlotsInherited counts the filled partner-table slots
	// publishes carried into their successor epoch, PartnerSlotsDropped
	// those they cleared there because the batch may have changed the
	// slot's list (the successor refills them on demand).
	PartnerSlotsInherited int64 `json:"partner_slots_inherited"`
	PartnerSlotsDropped   int64 `json:"partner_slots_dropped"`
	// PublishCopiedBytes sums, over all publishes, what carrying the
	// decoded index and the partner tables into the successor epoch
	// allocated: new chunk directories plus the chunks that held a node,
	// center or slot the batch touched. PublishInheritUS is the log2 histogram
	// of the time each publish spent on that carry and on patching the
	// projections: entry i counts publishes that took [2^(i-1), 2^i) µs
	// (entry 0: under 1 µs), cut after the last non-zero entry.
	PublishCopiedBytes int64   `json:"publish_copied_bytes"`
	PublishInheritUS   []int64 `json:"publish_inherit_us"`
	// PageFileBytes is the page store's size (every allocated page),
	// FreePages the pages on the buffer pool's free list waiting for reuse
	// and PagesRecycled how many pages have been returned to that list
	// since startup: pages a write batch superseded, once no epoch (and,
	// file-backed, no synced manifest) can reach them, and pages queries
	// spilled to. Insert/delete round trips recycle what they supersede, so
	// PageFileBytes stays near its built size.
	PageFileBytes int   `json:"page_file_bytes"`
	FreePages     int   `json:"free_pages"`
	PagesRecycled int64 `json:"pages_recycled"`
	// P50ms and P99ms are approximate latency quantiles in milliseconds
	// (histogram-bucketed; 0 when no queries completed). Like every latency
	// here and a response's elapsed_ms they stop when the query's result is
	// resolved; EncodeMs is the cumulative time POST /query then spent
	// encoding and writing response bodies, ResponseBytes their total size.
	P50ms         float64 `json:"p50_ms"`
	P99ms         float64 `json:"p99_ms"`
	EncodeMs      float64 `json:"encode_ms"`
	ResponseBytes int64   `json:"response_bytes"`
	// GoAllocBytes and GoGCCycles are the process's cumulative heap
	// allocation in bytes and its completed GC cycles, read from
	// runtime/metrics (/gc/heap/allocs:bytes, /gc/cycles/total:gc-cycles)
	// when the snapshot is taken. Their difference between two snapshots,
	// over the queries between them, is the allocation per query.
	GoAllocBytes uint64 `json:"go_alloc_bytes"`
	GoGCCycles   uint64 `json:"go_gc_cycles"`
	// IO is the database buffer pool's accumulated counters.
	IO storage.IOStats `json:"io"`
	// UptimeSeconds is time since New.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Stats returns a consistent-enough snapshot of the server's counters (each
// counter is read atomically; the set is not cut at one instant).
func (s *Server) Stats() Stats {
	st := Stats{
		Queries:               s.met.queries.Load(),
		Errors:                s.met.errs.Load(),
		Rejections:            s.met.rejected.Load(),
		Deadline:              s.met.deadline.Load(),
		BudgetKills:           s.met.budgetKills.Load(),
		TruncatedQueries:      s.met.truncated.Load(),
		IntermediateBytes:     s.met.imBytes.Load(),
		PeakIntermediateBytes: s.met.peakImBytes.Load(),
		PeakIntermediateRows:  s.met.peakImRows.Load(),
		Queued:                s.met.queued.Load(),
		InFlight:              s.InFlight(),
		MaxInFlight:           s.cfg.MaxInFlight,
		PlanCacheHits:         s.met.planHits.Load(),
		PlanCacheMisses:       s.met.planMisses.Load(),
		PlanCacheSize:         s.plans.len(),
		RowsReturned:          s.met.rows.Load(),
		EdgeInserts:           s.met.edgeInserts.Load(),
		InsertDuplicates:      s.met.insertDuplicates.Load(),
		InsertLabelEntries:    s.met.insertLabelEntries.Load(),
		InsertErrors:          s.met.insertErrors.Load(),
		EdgeDeletes:           s.met.edgeDeletes.Load(),
		DeleteNoops:           s.met.deleteNoops.Load(),
		DeleteLabelEntries:    s.met.deleteLabelEntries.Load(),
		DeleteErrors:          s.met.deleteErrors.Load(),
		OperatorOps:           s.met.operatorOps.Load(),
		FusedFilters:          s.met.fusedFilters.Load(),
		FactorisedSteps:       s.met.factorised.Load(),
		CenterCacheHits:       s.met.centerHits.Load(),
		CenterCacheMisses:     s.met.centerMisses.Load(),
		EncodeMs:              float64(s.met.encodeNS.Load()) / 1e6,
		ResponseBytes:         s.met.responseBytes.Load(),
		UptimeSeconds:         time.Since(s.start).Seconds(),
	}
	if !s.db.Closed() {
		st.IO = s.db.IOStats()
		memo := s.db.DecodedMemoStats()
		st.DecodedMemoNodes, st.PartnerTables, st.PartnerBitmaps, st.DecodedMemoResets = memo.Nodes, memo.Tables, memo.Bitmaps, memo.Resets
		st.FilteredTables, st.FilteredLists, st.FilteredListBytes = memo.FilteredTables, memo.FilteredLists, memo.FilteredBytes
		st.DecodedMemoBytes = 4 * st.DecodedMemoNodes
		st.ProjectionScans, st.ProjectionsInherited, st.ProjectionsPatched = s.db.ProjectionStats()
		st.ProjectionBytes = s.db.ProjectionBytes()
		st.PartnerSlotsInherited, st.PartnerSlotsDropped = s.db.PartnerSlotStats()
		var hist [64]int64
		st.PublishCopiedBytes, hist = s.db.PublishStats()
		n := len(hist)
		for n > 0 && hist[n-1] == 0 {
			n--
		}
		st.PublishInheritUS = hist[:n:n]
		st.PageFileBytes = s.db.SizeBytes()
		st.FreePages, st.PagesRecycled = s.db.PageStats()
		es := s.db.EpochStats()
		st.CurrentEpoch = es.Current
		st.PinnedEpochs = es.Pinned
		st.OldestPinnedAgeSeconds = es.OldestAge.Seconds()
		st.SnapshotsRetired = es.Retired
	}
	st.GoAllocBytes, st.GoGCCycles = goRuntimeCounters()
	if p := s.met.quantile(0.50); !math.IsNaN(p) {
		st.P50ms = p
	}
	if p := s.met.quantile(0.99); !math.IsNaN(p) {
		st.P99ms = p
	}
	return st
}

// goRuntimeCounters reads the process's cumulative heap allocation and
// completed GC cycles from runtime/metrics.
func goRuntimeCounters() (allocBytes, gcCycles uint64) {
	samples := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}
