// Package fastmatch is a graph pattern matching engine for large directed
// node-labeled graphs, implementing Cheng, Yu, Ding, Yu and Wang, "Fast
// Graph Pattern Matching" (ICDE 2008).
//
// Given a data graph and a pattern — a small directed graph whose nodes are
// labels and whose edges are reachability conditions X→Y — the engine finds
// every tuple of data nodes matching all conditions. Internally it builds a
// 2-hop reachability cover, stores per-label base tables with graph codes
// in a paged storage engine, and answers patterns as sequences of R-joins
// and R-semijoins over a cluster-based R-join index, ordered by a dynamic
// programming optimizer (the paper's DP and DPS algorithms).
//
// Quick start:
//
//	b := fastmatch.NewGraphBuilder()
//	alice := b.AddNode("person")
//	paper := b.AddNode("paper")
//	b.AddEdge(alice, paper)
//	eng, err := fastmatch.NewEngine(b.Build(), fastmatch.Options{})
//	defer eng.Close()
//	res, err := eng.Query("person->paper")
//	for _, row := range res.Rows { ... }
//
// See the examples directory for complete programs and DESIGN.md for the
// paper-to-code map.
package fastmatch

import (
	"context"
	"fmt"
	"net/http"

	"fastmatch/internal/epoch"
	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/reach"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/server"
	"fastmatch/internal/storage"
)

// ErrClosed is returned by Engine and Service methods called after Close.
var ErrClosed = gdb.ErrClosed

// ErrOverloaded is returned (wrapped in a *server.OverloadError) when a
// Service sheds a query under admission control; match with errors.Is.
var ErrOverloaded = server.ErrOverloaded

// ErrRowLimit and ErrBudgetExceeded are the typed resource-governor
// failures: a query exceeded its Budget's intermediate-row or byte
// allowance and was killed mid-execution. Match with errors.Is.
var (
	ErrRowLimit       = rjoin.ErrRowLimit
	ErrBudgetExceeded = rjoin.ErrBudgetExceeded
)

// Budget is a per-query resource governor: a result-row limit (pushed
// into plan execution, so rows past it are never materialised) and hard
// caps on intermediate table rows and bytes that kill a runaway query
// with ErrRowLimit / ErrBudgetExceeded. The zero value imposes no
// bounds. A Budget is single-use: it also accumulates the query's
// accounting (Bytes, PeakRows, Truncated), so pass a fresh one per query.
type Budget = rjoin.Budget

// NodeID identifies a node of a data graph.
type NodeID = graph.NodeID

// Label identifies a node label.
type Label = graph.Label

// Graph is an immutable directed node-labeled data graph.
type Graph = graph.Graph

// GraphBuilder incrementally constructs a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// Pattern is a parsed graph pattern: nodes are labels, edges are
// reachability conditions.
type Pattern = pattern.Pattern

// ParsePattern parses the pattern syntax "A->B; B->C; ...".
func ParsePattern(s string) (*Pattern, error) { return pattern.Parse(s) }

// MustPattern is ParsePattern that panics on error, for fixed patterns.
func MustPattern(s string) *Pattern { return pattern.MustParse(s) }

// Result is a query result: Cols holds pattern-node indexes (in pattern
// order) and Rows the matching data-node tuples.
type Result = rjoin.Table

// Plan is an optimized execution plan (inspect via its String method).
type Plan = optimizer.Plan

// Algorithm selects the plan-selection strategy.
type Algorithm = exec.Algorithm

const (
	// DP optimizes R-join order only (the paper's Section 4.1).
	DP = exec.DP
	// DPS interleaves R-joins with R-semijoins (Section 4.2); the default
	// and usually the fastest.
	DPS = exec.DPS
)

// ParseAlgorithm maps an algorithm name ("dp", "dps"; empty
// selects DPS) to an Algorithm. It is the parser behind the -algo
// flags and the HTTP API's "algorithm" field.
func ParseAlgorithm(name string) (Algorithm, error) { return exec.ParseAlgorithm(name) }

// IOStats reports page-level I/O counters of the engine's buffer pool.
type IOStats = storage.IOStats

// Options configures NewEngine.
type Options struct {
	// Path stores the database in a page file; empty keeps it in memory.
	Path string
	// PoolBytes sizes the buffer pool (default 1 MB, the paper's setting).
	PoolBytes int
}

// Engine is a queryable graph database built from a data graph. Build
// once, query many times. Methods are safe for concurrent use and queries
// run in parallel without blocking on a writer: each pins a snapshot epoch
// and reads the per-row index entries it needs (partner lists, graph
// codes) from that epoch's lock-free arrays. Only reference plans
// (exec.PlanConfig.NoFastPath) spill intermediate results to a private
// scratch area. (The paper's executor is single-threaded; see DESIGN.md
// for how the concurrent read path maps onto it.) For serving with
// admission control, a plan cache, and metrics, wrap the engine with
// Parallel.
type Engine struct {
	db *gdb.DB
}

// NewEngine indexes g: it computes the 2-hop cover, writes base tables,
// the W-table and the cluster-based R-join index, and returns a queryable
// engine. With a non-empty Options.Path the database (including the graph)
// is persisted and can later be reattached with OpenEngine.
func NewEngine(g *Graph, opt Options) (*Engine, error) {
	db, err := gdb.Build(g, gdb.Options{Path: opt.Path, PoolBytes: opt.PoolBytes})
	if err != nil {
		return nil, err
	}
	return &Engine{db: db}, nil
}

// OpenEngine reattaches to a database previously created by NewEngine with
// the same path, without recomputing the 2-hop cover or any index.
// opt.Path is ignored (the argument path wins).
func OpenEngine(path string, opt Options) (*Engine, error) {
	db, err := gdb.Open(path, gdb.Options{PoolBytes: opt.PoolBytes})
	if err != nil {
		return nil, err
	}
	return &Engine{db: db}, nil
}

// Close releases the engine's storage. Close is idempotent; afterwards
// every query method returns ErrClosed.
func (e *Engine) Close() error { return e.db.Close() }

// Graph returns the underlying data graph.
func (e *Engine) Graph() *Graph { return e.db.Graph() }

// Query parses and evaluates a pattern with the DPS optimizer.
func (e *Engine) Query(patternText string) (*Result, error) {
	return e.QueryContext(context.Background(), patternText)
}

// QueryContext is Query honouring ctx: the query is abandoned mid-join
// (returning ctx's error) once the context is cancelled or past its
// deadline.
func (e *Engine) QueryContext(ctx context.Context, patternText string) (*Result, error) {
	p, err := ParsePattern(patternText)
	if err != nil {
		return nil, err
	}
	return e.QueryPatternContext(ctx, p, DPS)
}

// QueryPattern evaluates a parsed pattern with the chosen optimizer.
func (e *Engine) QueryPattern(p *Pattern, algo Algorithm) (*Result, error) {
	return e.QueryPatternContext(context.Background(), p, algo)
}

// QueryPatternContext is QueryPattern honouring ctx for cancellation and
// deadlines.
func (e *Engine) QueryPatternContext(ctx context.Context, p *Pattern, algo Algorithm) (*Result, error) {
	return e.QueryPatternBudget(ctx, p, algo, nil)
}

// QueryPatternBudget is QueryPatternContext under a resource budget: b's
// result-row limit is pushed into execution (check b.Truncated() for a
// cut result) and its row/byte caps kill the query with ErrRowLimit /
// ErrBudgetExceeded. b may be nil for an unbudgeted run; a non-nil b must
// be fresh (it accumulates this query's accounting).
func (e *Engine) QueryPatternBudget(ctx context.Context, p *Pattern, algo Algorithm, b *Budget) (*Result, error) {
	res, _, _, err := e.run(ctx, p, algo, false, b)
	return res, err
}

// run is the single bind-optimize-execute step shared by every query and
// explain path. It pins one snapshot epoch for planning and execution, so
// the plan's statistics and the rows it produces come from the same index
// version even while edges are being inserted.
func (e *Engine) run(ctx context.Context, p *Pattern, algo Algorithm, trace bool, b *Budget) (*Result, *Plan, []StepTrace, error) {
	if e.db.Closed() {
		return nil, nil, nil, ErrClosed
	}
	snap, release := e.db.Pin()
	defer release()
	plan, err := exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{})
	if err != nil {
		return nil, nil, nil, err
	}
	res, traces, err := exec.RunSnapWithTraceConfig(ctx, snap, plan, trace, exec.RunConfig{Budget: b})
	if err != nil {
		return nil, nil, nil, err
	}
	return res, plan, traces, nil
}

// Explain returns the plan the optimizer would choose, without running it.
func (e *Engine) Explain(p *Pattern, algo Algorithm) (*Plan, error) {
	if e.db.Closed() {
		return nil, ErrClosed
	}
	snap, release := e.db.Pin()
	defer release()
	return exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{})
}

// ExplainAnalyze runs a plan and returns the result together with per-step
// actual row counts, I/O, and timings.
func (e *Engine) ExplainAnalyze(p *Pattern, algo Algorithm) (*Result, *Plan, []StepTrace, error) {
	return e.ExplainAnalyzeContext(context.Background(), p, algo)
}

// ExplainAnalyzeContext is ExplainAnalyze honouring ctx.
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, p *Pattern, algo Algorithm) (*Result, *Plan, []StepTrace, error) {
	return e.run(ctx, p, algo, true, nil)
}

// StepTrace reports one executed plan step (see ExplainAnalyze).
type StepTrace = exec.StepTrace

// Reaches reports u ⇝ v using the engine's 2-hop graph codes. The lookup
// pins one snapshot epoch, so it never blocks on (or is torn by) a
// concurrent InsertEdge.
func (e *Engine) Reaches(u, v NodeID) (bool, error) {
	return e.db.Reaches(u, v)
}

// CoverDelta records one reachability-label entry changed by an edge
// insert or delete: Center joined (Removed false) or left (Removed true)
// L_out(Node) (Out true) or L_in(Node) (Out false).
type CoverDelta = reach.LabelDelta

// EdgeInsertStats summarises what one InsertEdge changed in the index.
type EdgeInsertStats = gdb.EdgeInsertStats

// ErrBadInsert is returned by InsertEdge when an endpoint lies outside the
// graph's node range; match with errors.Is.
var ErrBadInsert = gdb.ErrBadInsert

// InsertEdge adds the edge u→v to the data graph and incrementally repairs
// every index structure — the 2-hop codes in the base tables, the
// cluster-based R-join index, and the W-table — with point updates, no
// rebuild (see DESIGN.md, "Incremental maintenance" and "Snapshot
// epochs"). Queries are never blocked: the repaired index is prepared on
// private copy-on-write pages and published as a new snapshot epoch, while
// in-flight queries keep reading the epoch they pinned.
//
// Inserting an edge that already exists is a cheap no-op (Stats.Duplicate).
// For a file-backed engine the update is in-memory until Sync.
func (e *Engine) InsertEdge(u, v NodeID) (EdgeInsertStats, error) {
	return e.db.ApplyEdgeInsert(u, v)
}

// InsertEdges applies a batch of edge inserts with ONE snapshot publish at
// the end, so readers see either none or all of the batch and the
// per-publish overhead is amortised. The returned slice holds per-edge
// stats in order; on error it covers the successfully applied prefix,
// which stays applied.
func (e *Engine) InsertEdges(edges [][2]NodeID) ([]EdgeInsertStats, error) {
	return e.db.ApplyEdgeInserts(edges)
}

// EdgeDeleteStats summarises what one DeleteEdge changed in the index.
type EdgeDeleteStats = gdb.EdgeDeleteStats

// ErrBadDelete is returned by DeleteEdge when an endpoint lies outside the
// graph's node range; match with errors.Is.
var ErrBadDelete = gdb.ErrBadDelete

// DeleteEdge removes the edge u→v from the data graph and incrementally
// repairs every index structure with point updates, no rebuild: stale
// 2-hop label entries (those whose every support path used the edge) are
// removed, entries for pairs that stay reachable are re-added, subclusters
// shrink (centers whose subclusters empty are dropped), and W-table rows
// that lost their last center are retracted (see DESIGN.md, "Incremental
// maintenance"). Like inserts, the repaired index is prepared on private
// copy-on-write pages and published as a new snapshot epoch; queries are
// never blocked.
//
// Deleting an edge that is not present is a cheap no-op (Stats.Missing)
// publishing no epoch. For a file-backed engine the update is in-memory
// until Sync.
func (e *Engine) DeleteEdge(u, v NodeID) (EdgeDeleteStats, error) {
	return e.db.ApplyEdgeDelete(u, v)
}

// DeleteEdges applies a batch of edge deletes with ONE snapshot publish at
// the end (none if the batch changed nothing). The returned slice holds
// per-edge stats in order; on error it covers the successfully applied
// prefix, which stays applied.
func (e *Engine) DeleteEdges(edges [][2]NodeID) ([]EdgeDeleteStats, error) {
	return e.db.ApplyEdgeDeletes(edges)
}

// EpochStats reports the snapshot-epoch bookkeeping: the current epoch
// number, how many epochs are live (pinned by in-flight reads), the age of
// the oldest live epoch, and how many superseded epochs have been retired.
type EpochStats = epoch.Stats

// EpochStats returns the engine's snapshot-epoch counters. Pinned returns
// to 1 when no reads are in flight — a persistently higher value means a
// reader is holding an old epoch (and its pages) alive.
func (e *Engine) EpochStats() EpochStats { return e.db.EpochStats() }

// Sync persists any InsertEdge updates of a file-backed engine to its page
// file and manifest; it is a no-op for in-memory engines.
func (e *Engine) Sync() error { return e.db.Sync() }

// Repack rewrites the persisted database at src into a fresh file at dst
// with every index bulk-loaded: edge inserts fragment the page file
// (half-full B+-tree split pages, stale copy-on-write page versions),
// and repacking restores the dense layout Build produces. It runs offline
// — src is only read, dst is replaced — and deterministically: repacking
// the same source twice yields byte-identical output. src and dst must
// differ.
func Repack(src, dst string) error {
	return gdb.Repack(src, dst, gdb.Options{})
}

// IOStats returns the accumulated buffer pool counters.
func (e *Engine) IOStats() IOStats {
	return e.db.IOStats()
}

// ResetIOStats zeroes the counters (e.g. after the build, before a
// measured query).
func (e *Engine) ResetIOStats() {
	e.db.ResetIOStats()
}

// Stats summarises the engine's index structures.
type Stats struct {
	// Nodes and Edges describe the data graph.
	Nodes, Edges int
	// Labels is |Σ|.
	Labels int
	// CoverSize is the 2-hop cover size |H|.
	CoverSize int
	// CoverRatio is |H|/|V|.
	CoverRatio float64
	// Centers is the number of centers in the cluster-based R-join index.
	Centers int
	// SizeBytes is the on-disk size of the database.
	SizeBytes int
}

// Stats reports index statistics.
func (e *Engine) Stats() Stats {
	g := e.db.Graph()
	s := Stats{
		Nodes:     g.NumNodes(),
		Edges:     g.NumEdges(),
		Labels:    g.Labels().Len(),
		CoverSize: e.db.CoverSize(),
		Centers:   e.db.NumCenters(),
		SizeBytes: e.db.SizeBytes(),
	}
	if s.Nodes > 0 {
		s.CoverRatio = float64(s.CoverSize) / float64(s.Nodes)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("engine{|V|=%d |E|=%d |Σ|=%d |H|=%d (%.2f/node) centers=%d disk=%dKB}",
		s.Nodes, s.Edges, s.Labels, s.CoverSize, s.CoverRatio, s.Centers, s.SizeBytes/1024)
}

// Service is a concurrent query server over one engine: a bounded worker
// pool (admission control with queue timeout), an LRU plan cache keyed by
// canonical pattern form, and per-server metrics. Obtain one with
// Engine.Parallel; expose it over HTTP with Serve or Service.Handler.
type Service = server.Server

// ServeConfig tunes a Service (see the field docs in internal/server); the
// zero value selects the defaults (8 in-flight, 100ms queue timeout, a
// 256-entry plan cache).
type ServeConfig = server.Config

// ServiceStats is a point-in-time snapshot of a Service's counters.
type ServiceStats = server.Stats

// ServiceResult is one Service query's answer.
type ServiceResult = server.Result

// Parallel wraps the engine in a Service for concurrent serving. The
// engine must stay open for the service's lifetime; closing the engine
// makes the service answer ErrClosed (and its HTTP health check 503).
func (e *Engine) Parallel(cfg ServeConfig) *Service {
	return server.New(e.db, cfg)
}

// Serve runs the engine's HTTP query API on addr until the listener fails
// (it blocks, like http.ListenAndServe). Endpoints: POST /query,
// GET /stats, GET /healthz — see cmd/fgmserve and the README.
func Serve(addr string, e *Engine, cfg ServeConfig) error {
	return http.ListenAndServe(addr, e.Parallel(cfg).Handler())
}
