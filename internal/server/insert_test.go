package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"testing"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/xmark"
)

// insertTestGraph is a tiny two-layer graph with deliberately missing
// A→B connections, so each inserted edge grows the "A->B" result set.
func insertTestGraph() *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode("A")
	}
	for i := 0; i < 6; i++ {
		b.AddNode("B")
	}
	b.AddEdge(0, 6) // one seed match so the pattern binds non-trivially
	return b.Build()
}

// canonRows sorts a result's rows into a comparable form.
func canonRows(rows [][]graph.NodeID) string {
	strs := make([]string, len(rows))
	for i, r := range rows {
		strs[i] = fmt.Sprint(r)
	}
	sort.Strings(strs)
	return fmt.Sprint(strs)
}

func TestInsertEdgesGrowsResults(t *testing.T) {
	db, err := gdb.Build(insertTestGraph(), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Config{})
	ctx := context.Background()

	res0, err := s.Query(ctx, "A->B", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res0.Rows) != 1 {
		t.Fatalf("seed query returned %d rows, want 1", len(res0.Rows))
	}
	ir, err := s.InsertEdges(ctx, [][2]graph.NodeID{{1, 7}, {2, 8}, {0, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Applied != 2 || ir.Duplicates != 1 {
		t.Fatalf("insert result %+v, want 2 applied + 1 duplicate", ir)
	}
	res1, err := s.Query(ctx, "A->B", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) != 3 {
		t.Fatalf("post-insert query returned %d rows, want 3", len(res1.Rows))
	}
	if got := s.Stats(); got.EdgeInserts != 2 || got.InsertDuplicates != 1 || got.InsertLabelEntries != int64(ir.LabelEntries) {
		t.Fatalf("insert metrics not recorded: %+v vs %+v", got, ir)
	}
}

func TestInsertEdgesBadRequest(t *testing.T) {
	s := testServer(t, Config{})
	if _, err := s.InsertEdges(context.Background(), [][2]graph.NodeID{{0, 9999}}); err == nil {
		t.Fatal("out-of-range insert accepted")
	} else if !isBadQuery(err) {
		t.Fatalf("out-of-range insert classified as %v, want ErrBadQuery", err)
	}
}

func isBadQuery(err error) bool {
	return err != nil && statusFor(err) == http.StatusBadRequest
}

// TestInsertHTTP drives POST /insert end to end, including the error
// mappings.
func TestInsertHTTP(t *testing.T) {
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
		resp, err := http.Post(ts.URL+"/insert", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := post(`{"edges": [[3, 9], [3, 9]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert returned %d: %s", resp.StatusCode, body)
	}
	var ir InsertResult
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Applied != 1 || ir.Duplicates != 1 {
		t.Fatalf("insert result %+v, want 1 applied + 1 duplicate", ir)
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
}

// TestConcurrentInsertAndQueryPrefixConsistency is the torn-index test:
// with one writer streaming inserts and several query workers hammering
// the same pattern, every response must equal the result on some prefix of
// the insert sequence — and, per worker, the observed prefix index must
// never move backwards. Run under -race this also exercises the epoch
// lock's memory ordering.
func TestConcurrentInsertAndQueryPrefixConsistency(t *testing.T) {
	base := insertTestGraph()
	inserts := [][2]graph.NodeID{
		{1, 7}, {2, 8}, {3, 9}, {4, 10}, {5, 11}, {1, 8}, {2, 9}, {3, 10},
	}

	// Precompute the expected result for every prefix with from-scratch
	// builds.
	p := pattern.MustParse("A->B")
	prefixes := make([]string, len(inserts)+1)
	g := base
	for i := 0; i <= len(inserts); i++ {
		if i > 0 {
			g = g.WithEdge(inserts[i-1][0], inserts[i-1][1])
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
	// The test's observability hinges on prefixes being distinguishable.
	for i := 1; i < len(prefixes); i++ {
		if prefixes[i] == prefixes[i-1] {
			t.Fatalf("prefix %d result equals prefix %d; pick inserts that all change the result", i, i-1)
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
					errs <- fmt.Errorf("response matches no insert prefix: %s", got)
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

	// Writer: stream the inserts one request at a time, checking after each
	// that the new epoch's partner slots — carried or refilled — are exact.
	checkPartnersExact(t, s)
	for _, e := range inserts {
		body, _ := json.Marshal(InsertRequest{Edges: [][2]graph.NodeID{e}})
		resp, err := http.Post(ts.URL+"/insert", "application/json", bytes.NewBuffer(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			t.Fatalf("insert status %d: %s", resp.StatusCode, buf.String())
		}
		resp.Body.Close()
		checkPartnersExact(t, s)
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
	if got != prefixes[len(inserts)] {
		t.Fatalf("final result is not the full-sequence result:\n got %s\nwant %s", got, prefixes[len(inserts)])
	}
	checkQuiesced(t, db)
}

// TestStatsPageStoreStaysFlat: insert/delete round trips over HTTP leave
// the graph as they found it, and /stats shows the page store recycling
// what they supersede: pages_recycled grows, free_pages is reported, and
// page_file_bytes stays within twice its starting value. (Inline records
// left live on a partly dead slotted page still grow the store by a few
// pages a round trip, which is why the graph is not smaller.)
func TestStatsPageStoreStaysFlat(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 20000, Seed: 4}).Graph
	db, err := gdb.Build(g, gdb.Options{PoolBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(New(db, Config{}).Handler())
	defer ts.Close()

	type pageStats struct {
		PageFileBytes *int   `json:"page_file_bytes"`
		FreePages     *int   `json:"free_pages"`
		PagesRecycled *int64 `json:"pages_recycled"`
	}
	stats := func() pageStats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st pageStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.PageFileBytes == nil || st.FreePages == nil || st.PagesRecycled == nil {
			t.Fatalf("/stats lacks page_file_bytes, free_pages or pages_recycled: %+v", st)
		}
		return st
	}
	post := func(route string, edges [][2]graph.NodeID) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"edges": edges})
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %v: status %d", route, edges, resp.StatusCode)
		}
	}

	before := stats()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		var batch [][2]graph.NodeID
		for len(batch) < 4 {
			u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
			if u != v && !slices.Contains(g.Successors(u), v) && !slices.Contains(batch, [2]graph.NodeID{u, v}) {
				batch = append(batch, [2]graph.NodeID{u, v})
			}
		}
		post("/insert", batch)
		post("/delete", batch)
	}
	after := stats()
	if *after.PagesRecycled <= *before.PagesRecycled {
		t.Fatalf("pages_recycled %d -> %d over 30 round trips: want growth", *before.PagesRecycled, *after.PagesRecycled)
	}
	if *after.PageFileBytes > 2**before.PageFileBytes {
		t.Fatalf("page_file_bytes %d -> %d over 30 round trips: want at most 2x", *before.PageFileBytes, *after.PageFileBytes)
	}
}
