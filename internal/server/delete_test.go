package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
)

func TestDeleteEdgesShrinksResults(t *testing.T) {
	db, err := gdb.Build(insertTestGraph(), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Config{})
	ctx := context.Background()

	if _, err := s.InsertEdges(ctx, [][2]graph.NodeID{{1, 7}, {2, 8}}); err != nil {
		t.Fatal(err)
	}
	res0, err := s.Query(ctx, "A->B", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res0.Rows) != 3 {
		t.Fatalf("seeded query returned %d rows, want 3", len(res0.Rows))
	}
	dr, err := s.DeleteEdges(ctx, [][2]graph.NodeID{{0, 6}, {1, 7}, {3, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Applied != 2 || dr.Noops != 1 {
		t.Fatalf("delete result %+v, want 2 applied + 1 noop", dr)
	}
	res1, err := s.Query(ctx, "A->B", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) != 1 {
		t.Fatalf("post-delete query returned %d rows, want 1", len(res1.Rows))
	}
	st := s.Stats()
	if st.EdgeDeletes != 2 || st.DeleteNoops != 1 {
		t.Fatalf("delete metrics not recorded: %+v vs %+v", st, dr)
	}
	if st.DeleteLabelEntries != int64(dr.RemovedLabelEntries+dr.AddedLabelEntries) {
		t.Fatalf("delete_label_entries = %d, want %d", st.DeleteLabelEntries,
			dr.RemovedLabelEntries+dr.AddedLabelEntries)
	}
}

func TestDeleteEdgesBadRequest(t *testing.T) {
	s := testServer(t, Config{})
	_, err := s.DeleteEdges(context.Background(), [][2]graph.NodeID{{0, 9999}})
	if err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if !isBadQuery(err) {
		t.Fatalf("out-of-range delete classified as %v, want ErrBadQuery", err)
	}
	if got := s.Stats().DeleteErrors; got != 1 {
		t.Fatalf("delete_errors = %d, want 1", got)
	}
}

// TestDeleteHTTP drives POST /delete end to end, including the error
// mappings.
func TestDeleteHTTP(t *testing.T) {
	db, err := gdb.Build(insertTestGraph(), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/delete", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := post(`{"edges": [[0, 6], [0, 6]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete returned %d: %s", resp.StatusCode, body)
	}
	var dr DeleteResult
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Applied != 1 || dr.Noops != 1 {
		t.Fatalf("delete result %+v, want 1 applied + 1 noop", dr)
	}

	if resp, body := post(`{"edges": [[0, 50]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range edge: status %d (%s), want 400", resp.StatusCode, body)
	}
	if resp, _ := post(`{"edges": []}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"edges": [[0, 6]], "bogus": 1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestReadOnlyRejectsAllMutatingRoutes: S2 — with ReadOnly set, every route
// in the mutating-route registry answers 403 before reaching its handler,
// and read routes keep working. Iterating MutatingRoutePatterns() means a
// writer endpoint added later is covered automatically.
func TestReadOnlyRejectsAllMutatingRoutes(t *testing.T) {
	pats := MutatingRoutePatterns()
	if len(pats) < 2 {
		t.Fatalf("mutating-route registry lists %d routes, want at least /insert and /delete: %v", len(pats), pats)
	}
	db, err := gdb.Build(insertTestGraph(), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Config{ReadOnly: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, pat := range pats {
		var method, path string
		if _, err := fmt.Sscanf(pat, "%s %s", &method, &path); err != nil {
			t.Fatalf("unparseable route pattern %q", pat)
		}
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewBufferString(`{"edges": [[0, 6]]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s: status %d (%s), want 403", pat, resp.StatusCode, buf.String())
		}
	}
	// The guard did not swallow reads.
	resp, err := http.Post(ts.URL+"/query", "application/json",
		bytes.NewBufferString(`{"pattern": "A->B"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read-only /query: status %d, want 200", resp.StatusCode)
	}
	// And the graph really was never mutated.
	if got := s.Stats(); got.EdgeInserts != 0 || got.EdgeDeletes != 0 {
		t.Fatalf("read-only server recorded mutations: %+v", got)
	}
}

// TestPlanCacheAcrossEpochs: a cached plan is reused across a publish
// exactly while its statistics hold. A write elsewhere in the graph leaves
// the plan cached (the same plan, not an equal one); a write that moves the
// pattern's statistics re-plans and replaces the entry; and the tier-2
// "proven empty" answer is never cached, so a write that makes an
// impossible pattern possible (or back) is visible on the next query.
func TestPlanCacheAcrossEpochs(t *testing.T) {
	b := graph.NewBuilder()
	for _, l := range []string{"A", "A", "A", "B", "B", "B", "C", "C"} {
		b.AddNode(l)
	}
	b.AddEdge(0, 3) // A0->B0: the only edge
	db, err := gdb.Build(b.Build(), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Config{})
	ctx := context.Background()
	planOf := func(pat string) (*optimizer.Plan, bool) {
		t.Helper()
		snap, release := db.Pin()
		defer release()
		plan, cached, err := s.plan(ctx, snap, pattern.MustParse(pat), exec.DPS)
		if err != nil {
			t.Fatal(err)
		}
		return plan, cached
	}
	query := func(pat string, wantRows int, wantCached bool) {
		t.Helper()
		r, err := s.Query(ctx, pat, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != wantRows || r.PlanCached != wantCached {
			t.Fatalf("%s: %d rows, cached=%v; want %d rows, cached=%v", pat, len(r.Rows), r.PlanCached, wantRows, wantCached)
		}
	}
	insert := func(u, v graph.NodeID) {
		t.Helper()
		if _, err := s.InsertEdges(ctx, [][2]graph.NodeID{{u, v}}); err != nil {
			t.Fatal(err)
		}
	}

	query("A->B", 1, false)
	first, cached := planOf("A->B")
	if !cached {
		t.Fatal("repeat on the same epoch missed the plan cache")
	}

	// C0->C1 publishes an epoch that leaves every A->B statistic alone.
	insert(6, 7)
	query("A->B", 1, true)
	if same, cached := planOf("A->B"); !cached || same != first {
		t.Fatalf("after an unrelated publish: cached=%v, same plan=%v", cached, same == first)
	}

	// A1->B1 moves the pair's join size, projections and W count.
	insert(1, 4)
	query("A->B", 2, false)
	if replaced, cached := planOf("A->B"); !cached || replaced == first {
		t.Fatalf("after the pair's statistics moved: cached=%v, still the old plan=%v", cached, replaced == first)
	}
	if n := s.plans.len(); n != 1 {
		t.Fatalf("re-planning left %d cache entries, want 1 (replaced)", n)
	}

	// No B reaches a C yet: tier 2 answers, and must not be remembered.
	query("B->C", 0, false)
	query("B->C", 0, false)
	insert(3, 6) // B0->C0
	query("B->C", 2, false)
	query("B->C", 2, true)
	if _, err := s.DeleteEdges(ctx, [][2]graph.NodeID{{3, 6}}); err != nil {
		t.Fatal(err)
	}
	query("B->C", 0, false) // impossible again, although a plan is cached
	if st := s.Stats(); st.FastpathTier2Prunes != 3 {
		t.Fatalf("tier-2 prunes = %d, want 3", st.FastpathTier2Prunes)
	}
}

// TestConcurrentMutateAndQueryPrefixConsistency: S6 — the torn-index test
// with a mixed insert/delete stream: one writer alternates POST /insert and
// POST /delete while query workers hammer the same pattern; every response
// must equal the result on some prefix of the mutation sequence, and per
// worker the observed prefix index must never move backwards. Under -race
// this also exercises the epoch lock's memory ordering on the delete path.
func TestConcurrentMutateAndQueryPrefixConsistency(t *testing.T) {
	base := insertTestGraph()
	type op struct {
		del  bool
		u, v graph.NodeID
	}
	ops := []op{
		{false, 1, 7}, {false, 2, 8}, {true, 1, 7}, {false, 3, 9},
		{true, 0, 6}, {false, 1, 7}, {false, 4, 10}, {true, 2, 8},
	}

	// Precompute the expected result for every prefix with from-scratch
	// builds.
	p := pattern.MustParse("A->B")
	prefixes := make([]string, len(ops)+1)
	g := base
	for i := 0; i <= len(ops); i++ {
		if i > 0 {
			o := ops[i-1]
			if o.del {
				g = g.WithoutEdge(o.u, o.v)
			} else {
				g = g.WithEdge(o.u, o.v)
			}
		}
		db, err := gdb.Build(g, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := exec.Query(db, p, exec.DPS)
		if err != nil {
			t.Fatal(err)
		}
		prefixes[i] = canonRows(tab.Rows)
		db.Close()
	}
	// With deletes in the stream the result is no longer monotone, so the
	// prefix-index check is sound only if ALL prefixes are pairwise
	// distinct, not just adjacent ones.
	for i := range prefixes {
		for j := i + 1; j < len(prefixes); j++ {
			if prefixes[i] == prefixes[j] {
				t.Fatalf("prefix %d result equals prefix %d; pick ops whose states are pairwise distinct", j, i)
			}
		}
	}

	db, err := gdb.Build(base, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Config{MaxInFlight: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, workers+1)

	queryOnce := func() (string, error) {
		resp, err := http.Post(ts.URL+"/query", "application/json",
			bytes.NewBufferString(`{"pattern": "A->B"}`))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return "", fmt.Errorf("query status %d: %s", resp.StatusCode, buf.String())
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return "", err
		}
		return canonRows(qr.Rows), nil
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := queryOnce()
				if err != nil {
					errs <- err
					return
				}
				i := slices.Index(prefixes, got)
				if i < 0 {
					errs <- fmt.Errorf("response matches no mutation prefix: %s", got)
					return
				}
				if i < last {
					errs <- fmt.Errorf("prefix index went backwards: %d after %d", i, last)
					return
				}
				last = i
			}
		}()
	}

	// Writer: stream the mutations one request at a time. Every projection
	// list is memoized on the first epoch; each publish must hand exact
	// lists to its successor without a single full scan, and exact partner
	// slots where it carries a table over.
	checkProjectionsExact(t, s)
	checkPartnersExact(t, s)
	scans := s.Stats().ProjectionScans
	for _, o := range ops {
		path := "/insert"
		if o.del {
			path = "/delete"
		}
		body, _ := json.Marshal(map[string][][2]graph.NodeID{"edges": {{o.u, o.v}}})
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBuffer(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			t.Fatalf("%s status %d: %s", path, resp.StatusCode, buf.String())
		}
		resp.Body.Close()
		checkProjectionsExact(t, s)
		checkPartnersExact(t, s)
		if got := s.Stats().ProjectionScans; got != scans {
			t.Fatalf("after %s %d->%d: %d full projection scans, want 0 (inherited)", path, o.u, o.v, got-scans)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the full sequence, the steady state must be the final prefix.
	got, err := queryOnce()
	if err != nil {
		t.Fatal(err)
	}
	if got != prefixes[len(ops)] {
		t.Fatalf("final result is not the full-sequence result:\n got %s\nwant %s", got, prefixes[len(ops)])
	}
	if st := s.Stats(); st.ProjectionsInherited != int64(len(ops)*2*2*2) || st.ProjectionsPatched == 0 {
		t.Fatalf("%d publishes inherited %d projection lists (want %d) and patched %d (want > 0)",
			len(ops), st.ProjectionsInherited, len(ops)*2*2*2, st.ProjectionsPatched)
	}
	checkQuiesced(t, db)
}
