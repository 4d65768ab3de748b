package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/storage"
)

// TestStatusFor: client faults map to 4xx, budget kills to 422, and —
// the bug this PR fixes — anything unclassified is a server fault (500),
// not a blanket 400.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrOverloaded, http.StatusTooManyRequests},
		{fmt.Errorf("wrapped: %w", ErrOverloaded), http.StatusTooManyRequests},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, 499},
		{gdb.ErrClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("exec: step 1 (hpsj): %w (16 frames all pinned)", storage.ErrPoolExhausted), http.StatusServiceUnavailable},
		{badQuery(errors.New("no such label")), http.StatusBadRequest},
		{rjoin.ErrRowLimit, http.StatusUnprocessableEntity},
		{rjoin.ErrBudgetExceeded, http.StatusUnprocessableEntity},
		{fmt.Errorf("exec: step 2 (Fetch): %w", rjoin.ErrRowLimit), http.StatusUnprocessableEntity},
		// Internal faults must NOT leak out as client errors.
		{errors.New("storage: page checksum mismatch"), http.StatusInternalServerError},
		{io.ErrUnexpectedEOF, http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestRequestBodyLimits: oversized bodies answer 413 and bodies with
// unknown fields 400, both before any planning or execution.
func TestRequestBodyLimits(t *testing.T) {
	s := testServer(t, Config{MaxRequestBytes: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	big := `{"pattern": "A->B", "algorithm": "` + strings.Repeat("x", 256) + `"}`
	if got := post(big); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", got)
	}
	if got := post(`{"pattern": "A->B", "bogus_field": 1}`); got != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", got)
	}
	if got := post(`{"pattern": "A->B", "limit": -1}`); got != http.StatusBadRequest {
		t.Fatalf("negative limit: %d, want 400", got)
	}
	if got := post(`{"pattern": "A->B", "limit": 2}`); got != http.StatusOK {
		t.Fatalf("healthy query: %d, want 200", got)
	}
	if s.Stats().Queries != 1 {
		t.Fatalf("rejected bodies reached execution: %+v", s.Stats())
	}
}

// TestStrictRequestBodies: every JSON route takes exactly one JSON value.
// Trailing garbage or a second object answers 400 and does nothing, where
// a bare Decode would act on the first value; trailing whitespace is fine.
// A negative timeout_ms is rejected like a negative limit.
func TestStrictRequestBodies(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	valid := map[string]string{
		"/query":  `{"pattern": "A->B"}`,
		"/insert": `{"edges": [[0, 59]]}`,
		"/delete": `{"edges": [[0, 59]]}`,
	}
	for _, route := range []string{"/query", "/insert", "/delete"} {
		body := valid[route]
		for _, tc := range []struct {
			body string
			want int
		}{
			{body + ` garbage`, http.StatusBadRequest},
			{body + body, http.StatusBadRequest},
			{body + ` 7`, http.StatusBadRequest},
			{body + " \n\t", http.StatusOK},
		} {
			resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("POST %s %q: %d %s, want %d", route, tc.body, resp.StatusCode, out, tc.want)
			}
		}
	}
	// A negative timeout_ms, and one too large for a time.Duration (which
	// would overflow into a deadline in the past), is rejected.
	for _, timeout := range []string{"-1", "10000000000000"} {
		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"pattern": "A->B", "timeout_ms": `+timeout+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("timeout_ms %s: %d, want 400", timeout, resp.StatusCode)
		}
	}
	st := s.Stats()
	if st.Queries != 1 || st.EdgeInserts+st.InsertDuplicates != 1 || st.EdgeDeletes+st.DeleteNoops != 1 {
		t.Fatalf("rejected bodies were acted on: %d queries, %d+%d inserts, %d+%d deletes",
			st.Queries, st.EdgeInserts, st.InsertDuplicates, st.EdgeDeletes, st.DeleteNoops)
	}
}

// TestStatsDropsParallelismKeys: operators run on the query's goroutine, so
// /stats no longer reports a worker degree or partition counters, and the
// engine has one reachability labeling, so it names no backend.
func TestStatsDropsParallelismKeys(t *testing.T) {
	s := testServer(t, Config{})
	if _, err := s.Query(context.Background(), "A->B; B->C", ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["operator_ops"] == nil {
		t.Fatalf("/stats lacks operator_ops: %v", st)
	}
	for _, key := range []string{"query_parallelism", "operator_parallel_ops", "operator_tasks", "worker_utilization", "reach_backend"} {
		if v, ok := st[key]; ok {
			t.Errorf("/stats still reports %s = %v", key, v)
		}
	}
}

// TestStatsGoRuntimeCounters: /stats reports the process's cumulative heap
// allocation and GC cycles; both are non-zero, and across a query the
// allocation grows and the cycle count does not fall.
func TestStatsGoRuntimeCounters(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	stats := func() (alloc, cycles uint64) {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Alloc  *uint64 `json:"go_alloc_bytes"`
			Cycles *uint64 `json:"go_gc_cycles"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Alloc == nil || st.Cycles == nil {
			t.Fatal("/stats lacks go_alloc_bytes or go_gc_cycles")
		}
		return *st.Alloc, *st.Cycles
	}
	runtime.GC() // at least one completed cycle, whatever ran before
	alloc0, cycles0 := stats()
	if alloc0 == 0 || cycles0 == 0 {
		t.Fatalf("go_alloc_bytes %d, go_gc_cycles %d: want both non-zero", alloc0, cycles0)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"pattern": "A->B; B->C"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	// runtime/metrics counts a small allocation only once its span leaves
	// the per-P cache (a refill or the end of a GC cycle), so a query that
	// fits in cached spans would not show yet: end a cycle first.
	runtime.GC()
	alloc1, cycles1 := stats()
	if alloc1 <= alloc0 || cycles1 < cycles0 {
		t.Fatalf("across a query go_alloc_bytes %d -> %d, go_gc_cycles %d -> %d: want growth and no fall", alloc0, alloc1, cycles0, cycles1)
	}
}

// TestPlanSingleflight: concurrent misses for the same pattern run DP/DPS
// once; the rest coalesce onto the leader's in-flight planning.
func TestPlanSingleflight(t *testing.T) {
	const waiters = 8
	s := testServer(t, Config{MaxInFlight: waiters + 1})

	// The hook parks the planning leader until every other goroutine has
	// had time to reach the flight map, making the race deterministic.
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	s.planBuildHook = func() {
		close(leaderIn)
		<-release
	}

	var wg sync.WaitGroup
	errs := make([]error, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[waiters] = s.Query(context.Background(), "A->B; B->C", "")
	}()
	<-leaderIn
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Query(context.Background(), "A->B; B->C", "")
		}(i)
	}
	// Let every waiter either coalesce or (losing a tiny race with the
	// leader's registration) miss the flight map; then free the leader.
	for s.met.planCoalesced.Load() < waiters {
		if s.met.planMisses.Load() > 1 {
			break
		}
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.PlanCacheMisses != 1 {
		t.Fatalf("plan built %d times, want 1 (coalesced=%d hits=%d)",
			st.PlanCacheMisses, st.PlanCoalesced, st.PlanCacheHits)
	}
	if st.PlanCoalesced != waiters {
		t.Fatalf("coalesced %d, want %d", st.PlanCoalesced, waiters)
	}
}

// TestPlanSingleflightError: a failed build is shared with coalesced
// waiters and never cached, and classifies as a client fault.
func TestPlanSingleflightError(t *testing.T) {
	s := testServer(t, Config{})
	_, err := s.Query(context.Background(), "A->Z; Z->B", "")
	if !errors.Is(err, ErrBadQuery) || !errors.Is(err, optimizer.ErrPattern) {
		t.Fatalf("unknown label: %v, want ErrBadQuery wrapping optimizer.ErrPattern", err)
	}
	if statusFor(err) != http.StatusBadRequest {
		t.Fatalf("unknown label status %d, want 400", statusFor(err))
	}
	if n := s.plans.len(); n != 0 {
		t.Fatalf("failed plan cached: %d entries", n)
	}
}

// TestPlanCacheZeroCapacity: newPlanCache treats zero capacity as disabled
// (Config maps 0 to the 256 default before it gets here, so only an
// explicit negative — or a direct zero — disables).
func TestPlanCacheZeroCapacity(t *testing.T) {
	c := newPlanCache(0)
	k := "k"
	c.put(k, nil)
	if _, ok := c.get(k); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
	if c.len() != 0 {
		t.Fatalf("len = %d, want 0", c.len())
	}
	if cfg := (Config{}).withDefaults(); cfg.PlanCacheSize != 256 {
		t.Fatalf("Config zero PlanCacheSize → %d, want 256", cfg.PlanCacheSize)
	}
	if cfg := (Config{PlanCacheSize: -1}).withDefaults(); cfg.PlanCacheSize != -1 {
		t.Fatalf("Config negative PlanCacheSize → %d, want -1 (disabled)", cfg.PlanCacheSize)
	}
}

// TestBudgetEndToEnd is the PR's acceptance test: a pattern whose full
// result exceeds the row budget comes back Truncated without the full
// table ever materialising, a table-row cap kills the query with 422, and
// /stats exposes the governor counters.
func TestBudgetEndToEnd(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, QueryResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var qr QueryResponse
		json.Unmarshal(raw, &qr)
		return resp.StatusCode, qr
	}

	// Reference: the full result, to size the budgets below.
	code, full := post(`{"pattern": "A->B; B->C"}`)
	if code != http.StatusOK || full.Truncated || full.RowCount < 3 {
		t.Fatalf("full query: %d %+v", code, full)
	}

	// Row-limit pushdown: the truncated result is the full run's prefix.
	code, cut := post(`{"pattern": "A->B; B->C", "limit": 2}`)
	if code != http.StatusOK || !cut.Truncated || cut.RowCount != 2 {
		t.Fatalf("limited query: %d %+v", code, cut)
	}
	for i, row := range cut.Rows {
		if fmt.Sprint(row) != fmt.Sprint(full.Rows[i]) {
			t.Fatalf("row %d: %v != full prefix %v", i, row, full.Rows[i])
		}
	}
	// A limit the result fits inside must not set Truncated.
	code, all := post(fmt.Sprintf(`{"pattern": "A->B; B->C", "limit": %d}`, full.RowCount))
	if code != http.StatusOK || all.Truncated || all.RowCount != full.RowCount {
		t.Fatalf("fitting limit: %d %+v", code, all)
	}

	st := s.Stats()
	if st.TruncatedQueries != 1 {
		t.Fatalf("truncated_queries = %d, want 1", st.TruncatedQueries)
	}
	if st.IntermediateBytes <= 0 || st.PeakIntermediateBytes <= 0 || st.PeakIntermediateRows < int64(full.RowCount) {
		t.Fatalf("governor accounting missing from stats: %+v", st)
	}
	if st.BudgetKills != 0 {
		t.Fatalf("budget_kills = %d before any kill", st.BudgetKills)
	}

	// The truncated run materialised strictly less than the full run:
	// two fresh servers over the same (deterministic) graph, one serving
	// only the limited query, compared on the /stats high-water marks.
	sFull, sCut := testServer(t, Config{}), testServer(t, Config{})
	if _, err := sFull.Query(context.Background(), "A->B; B->C", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := sCut.QueryOpts(context.Background(), "A->B; B->C", "", QueryOptions{Limit: 2}); err != nil {
		t.Fatal(err)
	}
	fullPeak, cutPeak := sFull.Stats(), sCut.Stats()
	if cutPeak.PeakIntermediateRows >= fullPeak.PeakIntermediateRows {
		t.Fatalf("pushdown did not cut materialisation: peak rows %d (limit 2) vs %d (full)",
			cutPeak.PeakIntermediateRows, fullPeak.PeakIntermediateRows)
	}
	if cutPeak.PeakIntermediateBytes >= fullPeak.PeakIntermediateBytes {
		t.Fatalf("pushdown did not cut allocation: peak bytes %d (limit 2) vs %d (full)",
			cutPeak.PeakIntermediateBytes, fullPeak.PeakIntermediateBytes)
	}

	// A server whose table-row budget is below the query's needs kills it
	// with 422 and counts the kill.
	tight := testServer(t, Config{MaxTableRows: 1})
	tts := httptest.NewServer(tight.Handler())
	defer tts.Close()
	resp, err := http.Post(tts.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"pattern": "A->B; B->C"}`)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("budget kill: %d %s, want 422", resp.StatusCode, raw)
	}
	if ks := tight.Stats().BudgetKills; ks != 1 {
		t.Fatalf("budget_kills = %d, want 1", ks)
	}

	// Same for the byte budget, through the library API.
	tightB := testServer(t, Config{MaxIntermediateBytes: 8})
	_, err = tightB.Query(context.Background(), "A->B; B->C", "")
	if !errors.Is(err, rjoin.ErrBudgetExceeded) {
		t.Fatalf("byte budget: %v, want ErrBudgetExceeded", err)
	}
	if ks := tightB.Stats().BudgetKills; ks != 1 {
		t.Fatalf("byte budget_kills = %d, want 1", ks)
	}
}
