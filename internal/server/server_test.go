package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
)

// testGraph is a layered random graph with enough matches for A->B; B->C
// to be non-trivial.
func testGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	labels := []string{"A", "B", "C", "D"}
	for i := 0; i < n; i++ {
		b.AddNode(labels[i%len(labels)])
	}
	// Edges only forward in node order: a DAG with layered reachability.
	for i := 0; i < 2*n; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.Build()
}

func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	db, err := gdb.Build(testGraph(1, 60), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		checkQuiesced(t, db)
		db.Close()
	})
	return New(db, cfg)
}

// checkQuiesced asserts the epoch bookkeeping of an idle database: with
// every query answered and every write applied, exactly one epoch — the
// current one — is live and every superseded one has retired. A second
// live epoch or a retirement lag is a leaked pin.
func checkQuiesced(t testing.TB, db *gdb.DB) {
	t.Helper()
	if es := db.EpochStats(); es.Pinned != 1 || es.Retired != es.Current {
		t.Errorf("database not quiesced: %d live epochs (want 1), %d of %d superseded epochs retired",
			es.Pinned, es.Retired, es.Current)
	}
}

// checkProjectionsExact compares both projection sets of every label pair
// on s's current epoch — memoized, inherited or computed on the spot — with
// a recomputation from the epoch's own trees: the union of the W row's
// subclusters, read unmemoized.
func checkProjectionsExact(t testing.TB, s *Server) {
	t.Helper()
	snap, release := s.db.Pin()
	defer release()
	union := func(ws []graph.NodeID, sub func(graph.NodeID) ([]graph.NodeID, error)) []graph.NodeID {
		var all []graph.NodeID
		for _, w := range ws {
			nodes, err := sub(w)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, nodes...)
		}
		slices.Sort(all)
		return slices.Compact(all)
	}
	nl := snap.Graph().Labels().Len()
	for x := graph.Label(0); int(x) < nl; x++ {
		for y := graph.Label(0); int(y) < nl; y++ {
			ws, err := snap.Centers(x, y)
			if err != nil {
				t.Fatal(err)
			}
			from, err := snap.ProjectFrom(x, y)
			if err != nil {
				t.Fatal(err)
			}
			to, err := snap.ProjectTo(x, y)
			if err != nil {
				t.Fatal(err)
			}
			wantFrom := union(ws, func(w graph.NodeID) ([]graph.NodeID, error) { return snap.GetF(w, x) })
			wantTo := union(ws, func(w graph.NodeID) ([]graph.NodeID, error) { return snap.GetT(w, y) })
			if !slices.Equal(from.Members(), wantFrom) || !slices.Equal(to.Members(), wantTo) ||
				from.Len() != len(wantFrom) || to.Len() != len(wantTo) {
				t.Fatalf("epoch %d, pair (%d,%d): projections %v / %v (%d / %d members), index holds %v / %v",
					snap.Epoch(), x, y, from.Members(), to.Members(), from.Len(), to.Len(), wantFrom, wantTo)
			}
		}
	}
}

// checkPartnersExact compares the partner list of every node under every
// pair of distinct labels, in both directions, on s's current epoch — a slot
// a query filled, one the publish carried over, or one filled on the spot —
// with the graph itself: the nodes of the other label a search from the node
// reaches (forward) or is reached from.
func checkPartnersExact(t testing.TB, s *Server) {
	t.Helper()
	snap, release := s.db.Pin()
	defer release()
	g, r := snap.Graph(), snap.Reader()
	reach := func(v graph.NodeID, next func(graph.NodeID) []graph.NodeID, l graph.Label) []graph.NodeID {
		seen := map[graph.NodeID]bool{v: true}
		var found []graph.NodeID
		for queue := []graph.NodeID{v}; len(queue) > 0; queue = queue[1:] {
			for _, u := range next(queue[0]) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
					if g.LabelOf(u) == l {
						found = append(found, u)
					}
				}
			}
		}
		slices.Sort(found)
		return found
	}
	nl := g.Labels().Len()
	for x := graph.Label(0); int(x) < nl; x++ {
		for y := graph.Label(0); int(y) < nl; y++ {
			if x == y {
				continue
			}
			for _, fwd := range []bool{true, false} {
				p, err := r.Partners(x, y, fwd)
				if err != nil {
					t.Fatal(err)
				}
				bound, other, next := x, y, g.Successors
				if !fwd {
					bound, other, next = y, x, g.Predecessors
				}
				for _, v := range g.Extent(bound) {
					got, err := p.Of(v)
					if err != nil {
						t.Fatal(err)
					}
					if want := reach(v, next, other); !slices.Equal(got, want) {
						t.Fatalf("epoch %d, pair (%d,%d) forward=%v: partners of node %d = %v, the graph says %v",
							snap.Epoch(), x, y, fwd, v, got, want)
					}
				}
			}
		}
	}
}

// TestQueryMatchesNaive: results served through the full stack (admission
// control, plan cache, context plumbing) equal the naive matcher's.
func TestQueryMatchesNaive(t *testing.T) {
	s := testServer(t, Config{})
	for _, q := range []string{"A->B", "A->B; B->C", "A->C; B->C"} {
		p := pattern.MustParse(q)
		want, err := exec.NaiveMatch(s.DB().Graph(), p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(context.Background(), q, "")
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want.SortRows()
		got := append([][]graph.NodeID(nil), res.Rows...)
		sortRows(got)
		if !reflect.DeepEqual(got, want.Rows) {
			t.Fatalf("%s: served %d rows, naive %d rows", q, len(got), len(want.Rows))
		}
		wantCols := make([]string, len(p.Nodes))
		copy(wantCols, p.Nodes)
		if !reflect.DeepEqual(res.Cols, wantCols) {
			t.Fatalf("%s: cols %v, want %v", q, res.Cols, wantCols)
		}
	}
}

func sortRows(rows [][]graph.NodeID) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && lessRow(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func lessRow(a, b []graph.NodeID) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// TestPlanCache: the second evaluation of a canonically-equal pattern skips
// planning; different algorithms do not share cache entries.
func TestPlanCache(t *testing.T) {
	s := testServer(t, Config{})
	ctx := context.Background()
	r1, err := s.Query(ctx, "A->B; B->C", "dps")
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlanCached {
		t.Fatal("first query reported a cached plan")
	}
	// Same conditions, different textual order: canonical form must match.
	r2, err := s.Query(ctx, "B->C; A->B", "dps")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.PlanCached {
		t.Fatal("canonically-equal query missed the plan cache")
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("cached plan returned %d rows, fresh plan %d", len(r2.Rows), len(r1.Rows))
	}
	// A different planner must not reuse the DPS plan.
	r3, err := s.Query(ctx, "A->B; B->C", "dp")
	if err != nil {
		t.Fatal(err)
	}
	if r3.PlanCached {
		t.Fatal("dp query hit the dps cache entry")
	}
	st := s.Stats()
	if st.PlanCacheHits != 1 || st.PlanCacheMisses != 2 {
		t.Fatalf("cache hits=%d misses=%d, want 1/2", st.PlanCacheHits, st.PlanCacheMisses)
	}
}

// TestZeroConfigPlansWithDPS: a zero Config means the documented defaults,
// including the planner — DPS is the zero Algorithm.
func TestZeroConfigPlansWithDPS(t *testing.T) {
	s := testServer(t, Config{})
	snap, release := s.db.Pin()
	defer release()
	plan, _, err := s.plan(snap, pattern.MustParse("A->B; B->C"), s.Config().DefaultAlgorithm)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != "DPS" {
		t.Fatalf("server.Config{} planned with %s, want DPS", plan.Algorithm)
	}
}

// TestAdmissionControl: with every slot taken, a query queues for the
// configured timeout and is then shed with a typed overload error.
func TestAdmissionControl(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 2, QueueTimeout: 20 * time.Millisecond})
	// Occupy both slots as two long-running queries would.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()

	start := time.Now()
	_, err := s.Query(context.Background(), "A->B", "")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err=%v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.MaxInFlight != 2 {
		t.Fatalf("err=%#v, want *OverloadError{MaxInFlight: 2}", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("rejected after %v, before the queue timeout", waited)
	}
	st := s.Stats()
	if st.Rejections != 1 || st.Queued != 1 || st.Errors != 1 {
		t.Fatalf("stats after rejection: %+v", st)
	}
}

// TestQueueThenAdmit: a queued query runs once a slot frees within the
// timeout instead of being rejected.
func TestQueueThenAdmit(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 1, QueueTimeout: time.Second})
	s.sem <- struct{}{}
	go func() {
		time.Sleep(10 * time.Millisecond)
		<-s.sem
	}()
	res, err := s.Query(context.Background(), "A->B", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if st := s.Stats(); st.Queued != 1 || st.Queries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDeadlineAndCancellation(t *testing.T) {
	s := testServer(t, Config{})
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := s.Query(expired, "A->B; B->C", ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err=%v", err)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if _, err := s.Query(cancelled, "A->B", ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err=%v", err)
	}
	if st := s.Stats(); st.Deadline != 2 {
		t.Fatalf("deadline count %d, want 2", st.Deadline)
	}
}

func TestDefaultTimeout(t *testing.T) {
	s := testServer(t, Config{DefaultTimeout: time.Nanosecond})
	if _, err := s.Query(context.Background(), "A->B", ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("default timeout: err=%v", err)
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(t, Config{})
	if _, err := s.Query(context.Background(), "A->", ""); err == nil {
		t.Fatal("malformed pattern accepted")
	}
	if _, err := s.Query(context.Background(), "A->B", "magic"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Unknown label is a binding error, surfaced from planning.
	if _, err := s.Query(context.Background(), "Nope->B", ""); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestClosedDatabase(t *testing.T) {
	db, err := gdb.Build(testGraph(2, 40), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), "A->B", ""); !errors.Is(err, gdb.ErrClosed) {
		t.Fatalf("closed db: err=%v", err)
	}
	// Stats must not touch the closed pool.
	if st := s.Stats(); st.Queries != 0 {
		t.Fatalf("stats on closed db: %+v", st)
	}

	// Closed while the plan is being built: the planner's storage error
	// keeps its cause and class (503), it is not the client's fault.
	db, err = gdb.Build(testGraph(2, 40), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s = New(db, Config{})
	s.planBuildHook = func() { db.Close() }
	_, err = s.Query(context.Background(), "A->B", "")
	if !errors.Is(err, gdb.ErrClosed) || errors.Is(err, ErrBadQuery) || statusFor(err) != http.StatusServiceUnavailable {
		t.Fatalf("closed during planning: %v (status %d), want gdb.ErrClosed, 503", err, statusFor(err))
	}
	if n := s.plans.len(); n != 0 {
		t.Fatalf("failed plan cached: %d entries", n)
	}
}

// TestHTTP exercises the JSON API over a real socket.
func TestHTTP(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 2, QueueTimeout: 10 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	// Healthy query.
	resp, body := post(`{"pattern": "A->B; B->C", "limit": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount == 0 || len(qr.Rows) > 3 || !qr.Truncated {
		t.Fatalf("response: %+v", qr)
	}
	if len(qr.Cols) != 3 {
		t.Fatalf("cols: %v", qr.Cols)
	}

	// Parse error → 400.
	if resp, body = post(`{"pattern": "A->"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pattern: %d %s", resp.StatusCode, body)
	}
	// The retired planners — merged-status DPS and the worst-case-optimal
	// multiway join — are unknown algorithms → 400.
	for _, algo := range []string{"dps-merged", "wcoj"} {
		resp, body = post(`{"pattern": "A->B", "algorithm": "` + algo + `"}`)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(`unknown algorithm \"`+algo+`\"`)) {
			t.Fatalf("%s: %d %s", algo, resp.StatusCode, body)
		}
	}
	// Missing pattern → 400.
	if resp, body = post(`{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: %d %s", resp.StatusCode, body)
	}
	// Deadline expiry → 504. A 1ns default budget is already elapsed by
	// execution's first context check, so this cannot race.
	slow := testServer(t, Config{DefaultTimeout: time.Nanosecond})
	tsSlow := httptest.NewServer(slow.Handler())
	defer tsSlow.Close()
	dresp, err := http.Post(tsSlow.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"pattern": "A->B"}`)))
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline: %d, want 504", dresp.StatusCode)
	}

	// Overload → 429 with Retry-After.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	resp, body = post(`{"pattern": "A->B"}`)
	<-s.sem
	<-s.sem
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Stats endpoint.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Queries < 1 || st.Rejections < 1 || st.MaxInFlight != 2 {
		t.Fatalf("stats: %+v", st)
	}

	// Health.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
	// Method mismatch → 405 from the mux method pattern.
	gresp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: %d", gresp.StatusCode)
	}
}

// TestHTTPClosed: closing the database flips the health check and query
// endpoint to 503.
func TestHTTPClosed(t *testing.T) {
	db, err := gdb.Build(testGraph(3, 40), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	db.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"pattern": "A->B"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query after close: %d", resp.StatusCode)
	}
}

// TestDPEdgeCap: DP enumerates every edge subset, so a chain pattern past
// 16 edges is a pattern error (400) before any enumeration, while a
// 16-edge chain still plans with DP and is answered. The cap depends on the
// pattern only: a 17-edge pattern with an edge whose W row is empty (here
// L16->L0 on a chain graph) is a 400 under DP and DPS alike, although it
// has no matches.
func TestDPEdgeCap(t *testing.T) {
	const nodes = 18
	b := graph.NewBuilder()
	for i := 0; i < nodes; i++ {
		b.AddNode(fmt.Sprintf("L%d", i))
		if i > 0 {
			b.AddEdge(graph.NodeID(i-1), graph.NodeID(i))
		}
	}
	db, err := gdb.Build(b.Build(), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ts := httptest.NewServer(New(db, Config{}).Handler())
	defer ts.Close()

	chain := func(edges int) string {
		parts := make([]string, edges)
		for i := range parts {
			parts[i] = fmt.Sprintf("L%d->L%d", i, i+1)
		}
		return strings.Join(parts, "; ")
	}
	for _, tc := range []struct {
		what, pattern, algo string
		status              int
	}{
		{"16-edge chain", chain(16), "dp", http.StatusOK},
		{"17-edge chain", chain(17), "dp", http.StatusBadRequest},
		{"17 edges, one empty-W", chain(16) + "; L16->L0", "dp", http.StatusBadRequest},
		{"17 edges, one empty-W", chain(16) + "; L16->L0", "dps", http.StatusBadRequest},
	} {
		body := fmt.Sprintf(`{"pattern": %q, "algorithm": %q, "timeout_ms": 100}`, tc.pattern, tc.algo)
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s, %s: %d %s, want %d", tc.what, tc.algo, resp.StatusCode, out, tc.status)
		}
		if tc.status == http.StatusOK && !bytes.Contains(out, []byte(`"row_count":1`)) {
			t.Fatalf("%s, %s: %s, want one row", tc.what, tc.algo, out)
		}
	}
}

// TestMetricsLatency: quantiles come out of the histogram in sane units.
func TestMetricsLatency(t *testing.T) {
	var m metrics
	for i := 0; i < 100; i++ {
		m.recordQuery(2*time.Millisecond, 1, false)
	}
	p50 := m.quantile(0.50)
	// 2ms lands in the [1.024, 2.048) ms bucket (geometric mid ~1.45ms).
	if p50 < 0.5 || p50 > 4 {
		t.Fatalf("p50 = %vms for 2ms samples", p50)
	}
	if m.quantile(0.99) != p50 {
		t.Fatalf("uniform samples: p99 %v != p50 %v", m.quantile(0.99), p50)
	}
}

func TestOverloadErrorMessage(t *testing.T) {
	err := &OverloadError{MaxInFlight: 4, Waited: 100 * time.Millisecond}
	want := fmt.Sprintf("server: overloaded (%d queries in flight, queued %v)", 4, 100*time.Millisecond)
	if err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("OverloadError does not match ErrOverloaded")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("OverloadError matches unrelated sentinel")
	}
}
