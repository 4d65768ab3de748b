// Package server is the concurrent query-serving subsystem: it wraps a
// gdb.DB with admission control (a bounded worker-pool semaphore with
// queue timeout), a plan cache keyed by canonical pattern form and
// validated against each pinned epoch's statistics, per-server metrics,
// and an HTTP front-end. The paper's engine is single-threaded; the
// storage and database layers were made safe for parallel readers (a
// sharded buffer pool, lock-free per-epoch partner tables and graph codes),
// so N queries execute simultaneously with no global engine mutex, each on
// its own goroutine — this package adds the serving policy on top.
//
// Reads and writes never block each other: each query pins one immutable
// snapshot epoch (gdb.DB.Pin) for its whole plan+execute lifetime, and
// edge inserts (POST /insert, InsertEdges) build a private copy-on-write
// snapshot that is published as the next epoch in one atomic step per
// batch. A query therefore answers on exactly one epoch — either before a
// concurrent batch or after it, never a torn middle — and an insert never
// waits for in-flight queries.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

// ErrOverloaded is the sentinel for admission-control rejection; match with
// errors.Is. The concrete error is *OverloadError.
var ErrOverloaded = errors.New("server: overloaded")

// OverloadError reports a query rejected because the server was at its
// in-flight limit and no slot freed within the queue timeout. It matches
// ErrOverloaded under errors.Is.
type OverloadError struct {
	// MaxInFlight is the configured concurrency limit.
	MaxInFlight int
	// Waited is how long the query queued before giving up.
	Waited time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overloaded (%d queries in flight, queued %v)", e.MaxInFlight, e.Waited)
}

// Is makes errors.Is(err, ErrOverloaded) true for *OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// ErrBadQuery marks client faults — pattern parse and algorithm errors, a
// pattern the planner cannot plan (optimizer.ErrPattern), a bad edge in a
// write batch. The HTTP layer maps it to 400; everything not explicitly
// classified (storage I/O, executor invariants) is a server fault and maps
// to 500. Match with errors.Is.
var ErrBadQuery = errors.New("server: invalid query")

// badQuery wraps a client-fault error so it classifies as ErrBadQuery
// while keeping the cause in the chain.
func badQuery(err error) error {
	return fmt.Errorf("%w: %w", ErrBadQuery, err)
}

// planError classifies a Prefilter/Bind/planner error: only a pattern the
// planner cannot plan is the client's fault. A closed database or a failed
// page read while binding keeps its own class (503 or 500).
func planError(err error) error {
	if errors.Is(err, optimizer.ErrPattern) {
		return badQuery(err)
	}
	return err
}

// Config tunes a Server. The zero value selects sensible defaults.
type Config struct {
	// MaxInFlight caps concurrently executing queries (default 8).
	MaxInFlight int
	// QueueTimeout is how long an admitted-over-capacity query may wait
	// for a slot before it is rejected with ErrOverloaded (default 100ms).
	QueueTimeout time.Duration
	// PlanCacheSize bounds the LRU plan cache in entries (default 256;
	// negative disables caching).
	PlanCacheSize int
	// DefaultAlgorithm is the planner used by Query when the request does
	// not choose one (default exec.DPS).
	DefaultAlgorithm exec.Algorithm
	// DefaultTimeout, when positive, bounds every query whose context has
	// no explicit deadline.
	DefaultTimeout time.Duration
	// MaxTableRows, when > 0, caps any intermediate temporal table's rows
	// per query; exceeding it fails the query with rjoin.ErrRowLimit
	// (HTTP 422).
	MaxTableRows int
	// MaxIntermediateBytes, when > 0, caps the cumulative bytes of
	// intermediate rows one query may allocate; exceeding it fails the
	// query with rjoin.ErrBudgetExceeded (HTTP 422).
	MaxIntermediateBytes int64
	// MaxRequestBytes bounds the /query, /insert and /delete request
	// bodies (default 1 MB).
	MaxRequestBytes int64
	// ReadOnly rejects every mutating HTTP endpoint (POST /insert,
	// POST /delete, and any writer route added later) with 403. It guards
	// the HTTP surface only; the in-process InsertEdges/DeleteEdges
	// methods stay available to the embedding program.
	ReadOnly bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	return c
}

// Result is one query's answer: Cols holds the pattern's node labels in
// result-column order and Rows the matching data-node tuples.
type Result struct {
	Cols []string
	Rows [][]graph.NodeID
	// PlanCached reports whether planning was skipped via the plan cache
	// (or coalesced onto another request's in-flight planning).
	PlanCached bool
	// Truncated reports that Rows was cut at the request's row limit; the
	// rows beyond it were never materialised.
	Truncated bool
	// IntermediateBytes is what the query charged against its budget: the
	// logical size of every row its operators produced, written out or not
	// (the last expansion never is); PeakRows the largest temporal table it
	// held, counted the same way.
	IntermediateBytes int64
	PeakRows          int64
	// Elapsed is the server-side latency (queueing + planning + execution).
	// It stops before the result is shipped: writing Rows out here, or
	// encoding the HTTP response (/stats encode_ms).
	Elapsed time.Duration

	// rows is the executor's result, its last expansion still factorised,
	// and nodes the pattern-node order Cols reports it in. Rows is written
	// out from them for in-process callers; the HTTP handler encodes them
	// directly and leaves Rows nil.
	rows  *rjoin.Result
	nodes []int
}

// QueryOptions carries per-request execution options.
type QueryOptions struct {
	// Limit, when > 0, caps the result rows. The limit is pushed into plan
	// execution: the final operator stops early and the full result table
	// is never materialised; Result.Truncated reports whether rows were
	// dropped.
	Limit int
}

// Server executes pattern queries against one database with bounded
// concurrency. All methods are safe for concurrent use.
type Server struct {
	db    *gdb.DB
	cfg   Config
	sem   chan struct{}
	plans *planCache
	met   metrics
	start time.Time

	// flight coalesces concurrent plan-cache misses on one canonical key:
	// one goroutine plans, the rest wait for its result (single-flight).
	flightMu sync.Mutex
	flight   map[string]*planCall
	// planBuildHook, when non-nil, runs on the planning goroutine after it
	// claims the flight slot and before it builds — a test seam for
	// forcing misses to overlap.
	planBuildHook func()
}

// planCall is one in-flight planning computation; done closes once plan
// and err are set.
type planCall struct {
	done chan struct{}
	plan *optimizer.Plan
	err  error
}

// New wraps db in a query server. Writes must go through the server's own
// InsertEdges (or the database's ApplyEdgeInserts), never around it — both
// publish snapshot epochs through the database's single-writer path that
// keeps in-flight queries consistent.
func New(db *gdb.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		db:     db,
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxInFlight),
		plans:  newPlanCache(cfg.PlanCacheSize),
		flight: make(map[string]*planCall),
		start:  time.Now(),
	}
}

// DB exposes the underlying database (read-only).
func (s *Server) DB() *gdb.DB { return s.db }

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Query parses and evaluates a pattern. algo is a planner name ("dp",
// "dps", "wcoj"); empty selects the configured default.
func (s *Server) Query(ctx context.Context, patternText, algo string) (*Result, error) {
	return s.QueryOpts(ctx, patternText, algo, QueryOptions{})
}

// QueryOpts is Query with per-request options (e.g. a pushed-down row
// limit).
func (s *Server) QueryOpts(ctx context.Context, patternText, algo string, opts QueryOptions) (*Result, error) {
	p, a, err := s.parse(patternText, algo)
	if err != nil {
		return nil, err
	}
	return s.QueryPatternOpts(ctx, p, a, opts)
}

// parse resolves a request's pattern text and planner name.
func (s *Server) parse(patternText, algo string) (*pattern.Pattern, exec.Algorithm, error) {
	p, err := pattern.Parse(patternText)
	if err != nil {
		return nil, 0, badQuery(err)
	}
	a := s.cfg.DefaultAlgorithm
	if algo != "" {
		if a, err = exec.ParseAlgorithm(algo); err != nil {
			return nil, 0, badQuery(err)
		}
	}
	return p, a, nil
}

// QueryPattern evaluates a parsed pattern under admission control: the
// query runs once an execution slot is free, honours ctx's deadline and
// cancellation mid-join, and is rejected with ErrOverloaded when the
// server stays at MaxInFlight past the queue timeout.
func (s *Server) QueryPattern(ctx context.Context, p *pattern.Pattern, algo exec.Algorithm) (*Result, error) {
	return s.QueryPatternOpts(ctx, p, algo, QueryOptions{})
}

// QueryPatternOpts is QueryPattern with per-request options. The query
// runs under a resource budget combining the request's row limit with the
// server's intermediate-table caps; budget kills surface as the typed
// rjoin.ErrRowLimit / rjoin.ErrBudgetExceeded.
func (s *Server) QueryPatternOpts(ctx context.Context, p *pattern.Pattern, algo exec.Algorithm, opts QueryOptions) (*Result, error) {
	res, err := s.run(ctx, p, algo, opts)
	if err != nil {
		return nil, err
	}
	t, err := res.rows.Table(res.nodes)
	if err != nil {
		return nil, err
	}
	res.Rows = t.Rows
	return res, nil
}

// run evaluates a parsed pattern and returns its answer with the rows as
// the executor produced them (Result.rows), for the caller to write out or
// encode. The execution slot and the epoch are released on return; what the
// result holds outlives both (see rjoin.Result).
func (s *Server) run(ctx context.Context, p *pattern.Pattern, algo exec.Algorithm, opts QueryOptions) (*Result, error) {
	if s.db.Closed() {
		return nil, gdb.ErrClosed
	}
	start := time.Now()
	if s.cfg.DefaultTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
			defer cancel()
		}
	}
	if err := s.acquire(ctx); err != nil {
		s.met.recordError(err)
		return nil, err
	}
	defer func() { <-s.sem }()

	// Pin one snapshot epoch for the whole query: planning statistics and
	// execution reads come from the same immutable index version, however
	// many insert batches publish meanwhile.
	snap, release := s.db.Pin()
	defer release()

	plan, cached, err := s.plan(ctx, snap, p, algo)
	if err != nil {
		s.met.recordError(err)
		return nil, err
	}
	// One operator runtime per query, run on this goroutine: its counters
	// feed the server metrics; the budget governs what the query may
	// produce.
	rt := new(rjoin.Runtime)
	bdg := &rjoin.Budget{
		ResultRows:   opts.Limit,
		MaxTableRows: s.cfg.MaxTableRows,
		MaxBytes:     s.cfg.MaxIntermediateBytes,
	}
	if len(plan.Steps) > 0 && plan.Steps[0].Kind == optimizer.StepWCOJ {
		s.met.wcojQueries.Add(1)
	}
	rows, _, err := exec.Run(ctx, snap, plan, false, exec.RunConfig{Runtime: rt, Budget: bdg})
	s.met.recordRuntime(rt.Stats())
	s.met.recordBudget(bdg)
	if err != nil {
		s.met.recordError(err)
		return nil, err
	}
	elapsed := time.Since(start)
	s.met.recordQuery(elapsed, rows.N, cached)
	s.met.recordTier(plan.Tier(), elapsed)
	// Column labels come from the plan's own pattern: a cache hit may have
	// been planned for an equivalent pattern whose nodes were declared in
	// a different order.
	nodes := make([]int, len(plan.Binding.Pattern.Nodes))
	for i := range nodes {
		nodes[i] = i
	}
	return &Result{
		Cols:              append([]string(nil), plan.Binding.Pattern.Nodes...),
		PlanCached:        cached,
		Truncated:         bdg.Truncated(),
		IntermediateBytes: bdg.Bytes(),
		PeakRows:          bdg.PeakRows(),
		Elapsed:           elapsed,
		rows:              rows,
		nodes:             nodes,
	}, nil
}

// acquire claims an execution slot, queueing up to the queue timeout.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	// At capacity: queue with a bound so overload sheds instead of piling
	// waiters ("fail fast and shallow" admission control).
	s.met.queued.Add(1)
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return &OverloadError{MaxInFlight: s.cfg.MaxInFlight, Waited: s.cfg.QueueTimeout}
	}
}

// plan returns the execution plan for (p, algo) against the pinned
// snapshot. The tier-2 prefilter runs on every request and is never
// cached: "proven empty" holds for one epoch only, and costs O(pattern).
// Every other plan comes from the LRU plan cache keyed by (algorithm,
// canonical pattern), reused across epochs for as long as the pinned
// snapshot's statistics equal the ones it was costed with, so repeated
// patterns skip DP/DPS planning whether or not a write published in
// between. Concurrent misses on the same key coalesce: exactly one
// goroutine runs the exponential DP/DPS search and the others share its
// result (or its error) instead of racing N identical planners — also
// across epochs, since any plan answers correctly on any snapshot.
func (s *Server) plan(ctx context.Context, snap *gdb.Snap, p *pattern.Pattern, algo exec.Algorithm) (*optimizer.Plan, bool, error) {
	if empty, err := optimizer.Prefilter(snap, p); err != nil {
		return nil, false, planError(err)
	} else if empty != nil {
		return empty, false, nil
	}
	key := algo.String() + "|" + p.Canonical()
	if e, ok := s.cachedPlan(snap, key); ok {
		s.met.planHits.Add(1)
		return e, true, nil
	}
	s.flightMu.Lock()
	if c, ok := s.flight[key]; ok {
		s.flightMu.Unlock()
		s.met.planCoalesced.Add(1)
		select {
		case <-c.done:
			// The waiter skipped planning, same as a cache hit.
			return c.plan, true, c.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	// Re-check the cache under the flight lock: a previous leader may have
	// filled it between our miss and claiming the slot.
	if e, ok := s.cachedPlan(snap, key); ok {
		s.flightMu.Unlock()
		s.met.planHits.Add(1)
		return e, true, nil
	}
	c := &planCall{done: make(chan struct{})}
	s.flight[key] = c
	s.flightMu.Unlock()

	s.met.planMisses.Add(1)
	if s.planBuildHook != nil {
		s.planBuildHook()
	}
	c.plan, c.err = exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{})
	if c.err != nil {
		// Shared verbatim with coalesced waiters.
		c.err = planError(c.err)
	} else {
		s.plans.put(key, c.plan)
	}
	s.flightMu.Lock()
	delete(s.flight, key)
	s.flightMu.Unlock()
	close(c.done)
	return c.plan, false, c.err
}

// cachedPlan returns the cached plan for key when the statistics it was
// costed with still hold on snap: the planner would choose it again. The
// plan's own pattern is re-bound (a request may spell an equivalent
// pattern with its nodes in another order); with projections inherited
// across publishes that is a handful of map lookups.
func (s *Server) cachedPlan(snap *gdb.Snap, key string) (*optimizer.Plan, bool) {
	plan, ok := s.plans.get(key)
	if !ok {
		return nil, false
	}
	b, err := optimizer.Bind(snap, plan.Binding.Pattern)
	if err != nil || !b.SameStats(plan.Binding) {
		return nil, false // the planning path reports err, or replaces the entry
	}
	return plan, true
}

// InFlight reports the number of queries currently executing.
func (s *Server) InFlight() int { return len(s.sem) }
