package server

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
)

// fastpathTestServer builds a server over a layered DAG plus one isolated
// Z-labeled node, so the battery below can reach the prefilter: Z
// participates in no edge, making any pattern touching it provably empty.
func fastpathTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder()
	labels := []string{"A", "B", "C", "D"}
	n := 60
	for i := 0; i < n; i++ {
		b.AddNode(labels[i%len(labels)])
	}
	for i := 0; i < 2*n; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	b.AddNode("Z")
	db, err := gdb.Build(b.Build(), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return New(db, cfg)
}

// TestStatsTierCounters: /stats counts the queries the signature
// prefilter proved empty, and only those; single edges and cycles run the
// operator pipeline (tier 3) and are not counted.
func TestStatsTierCounters(t *testing.T) {
	s := fastpathTestServer(t, Config{})
	ctx := context.Background()
	for _, tc := range []struct {
		pattern string
		tier    int
	}{
		{"A->B", 3},
		{"B->C", 3},
		{"A->Z", 2}, // signature-refuted
		{"A->B; B->C; C->A", 3},
	} {
		snap, release := s.db.Pin()
		plan, _, err := s.plan(ctx, snap, pattern.MustParse(tc.pattern), exec.DPS)
		release()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Tier() != tc.tier {
			t.Fatalf("%s: tier %d, want %d", tc.pattern, plan.Tier(), tc.tier)
		}
		res, err := s.Query(ctx, tc.pattern, "")
		if err != nil {
			t.Fatal(err)
		}
		if tc.tier == 2 && len(res.Rows) != 0 {
			t.Fatalf("impossible pattern returned %d rows", len(res.Rows))
		}
	}
	if st := s.Stats(); st.FastpathTier2Prunes != 1 || st.Queries != 4 {
		t.Fatalf("fastpath_tier2_prunes = %d of %d queries, want 1 of 4", st.FastpathTier2Prunes, st.Queries)
	}
}

// TestStatsDecodedMemo: served queries read through the snapshot's decoded
// memos, and /stats reports what those memos hold and how they hit. The
// second run of the same queries must be served from memory: more hits, no
// new misses, no growth.
func TestStatsDecodedMemo(t *testing.T) {
	s := fastpathTestServer(t, Config{})
	ctx := context.Background()
	run := func() {
		for _, q := range []string{"A->B; B->C", "A->B; A->C", "A->B; B->C; C->A"} {
			if _, err := s.Query(ctx, q, "dp"); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	run()
	cold := s.Stats()
	if cold.DecodedMemoMisses == 0 || cold.DecodedMemoNodes == 0 {
		t.Fatalf("cold run filled no decoded memo: %+v", cold)
	}
	if cold.CenterCacheHits+cold.CenterCacheMisses == 0 || cold.PartnerTables == 0 {
		t.Fatalf("no partner-slot lookups counted: %+v", cold)
	}
	if cold.DecodedMemoBytes != 4*cold.DecodedMemoNodes {
		t.Fatalf("decoded_memo_bytes = %d for %d node-ID units", cold.DecodedMemoBytes, cold.DecodedMemoNodes)
	}
	run()
	warm := s.Stats()
	if warm.DecodedMemoMisses != cold.DecodedMemoMisses || warm.DecodedMemoNodes != cold.DecodedMemoNodes || warm.PartnerTables != cold.PartnerTables {
		t.Fatalf("warm run missed the memo: misses %d -> %d, nodes %d -> %d",
			cold.DecodedMemoMisses, warm.DecodedMemoMisses, cold.DecodedMemoNodes, warm.DecodedMemoNodes)
	}
	if warm.DecodedMemoHits <= cold.DecodedMemoHits {
		t.Fatalf("warm run counted no hits: %d -> %d", cold.DecodedMemoHits, warm.DecodedMemoHits)
	}
	if warm.DecodedMemoResets != 0 {
		t.Fatalf("memo reset %d times on a 61-node graph", warm.DecodedMemoResets)
	}
}

// TestStatsProjectionBytes: /stats projection_bytes is what the current
// epoch's memoized projection sets occupy, 8·⌈N/64⌉ bytes each. Planning a
// query memoizes both projections of each of its label pairs, which its
// semijoin groups then read.
func TestStatsProjectionBytes(t *testing.T) {
	db, err := gdb.Build(testGraph(1, 200), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := New(db, Config{})
	ctx := context.Background()
	setBytes := 8 * ((db.Graph().NumNodes() + 63) / 64)
	if got := s.Stats().ProjectionBytes; got != 0 {
		t.Fatalf("projection_bytes = %d before any query", got)
	}

	const q = "A->B; B->C"
	snap, release := db.Pin()
	plan, _, err := s.plan(ctx, snap, pattern.MustParse(q), exec.DPS)
	release()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(plan.Steps, func(st optimizer.Step) bool { return st.Kind == optimizer.StepSemijoinGroup }) {
		t.Fatalf("%s: plan %v has no semijoin group; the test proves nothing", q, plan.Steps)
	}
	if _, err := s.Query(ctx, q, ""); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().ProjectionBytes, 2*2*setBytes; got != want {
		t.Fatalf("after %s: projection_bytes = %d, want 4 sets of %d bytes", q, got, setBytes)
	}
	checkProjectionsExact(t, s) // memoizes both sets of every label pair
	nl := db.Graph().Labels().Len()
	if got, want := s.Stats().ProjectionBytes, 2*nl*nl*setBytes; got != want {
		t.Fatalf("all pairs memoized: projection_bytes = %d, want %d sets of %d bytes", got, 2*nl*nl, setBytes)
	}
}
