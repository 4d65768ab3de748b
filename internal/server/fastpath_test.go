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
// Z-labeled node: Z participates in no edge, so every W row naming Z is
// empty.
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

// TestStatsDecodedMemo: served queries read through the snapshot's
// partner tables, and /stats reports what those tables hold and how their
// slots hit. The second run of the same queries must be served from
// memory: more slot hits, no new fills, no growth.
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
	if cold.CenterCacheMisses == 0 || cold.DecodedMemoNodes == 0 || cold.PartnerTables == 0 {
		t.Fatalf("cold run filled no partner slot: %+v", cold)
	}
	if cold.DecodedMemoBytes != 4*cold.DecodedMemoNodes {
		t.Fatalf("decoded_memo_bytes = %d for %d node-ID units", cold.DecodedMemoBytes, cold.DecodedMemoNodes)
	}
	run()
	warm := s.Stats()
	if warm.CenterCacheMisses != cold.CenterCacheMisses || warm.DecodedMemoNodes != cold.DecodedMemoNodes || warm.PartnerTables != cold.PartnerTables {
		t.Fatalf("warm run filled slots: fills %d -> %d, nodes %d -> %d",
			cold.CenterCacheMisses, warm.CenterCacheMisses, cold.DecodedMemoNodes, warm.DecodedMemoNodes)
	}
	if warm.CenterCacheHits <= cold.CenterCacheHits {
		t.Fatalf("warm run counted no hits: %d -> %d", cold.CenterCacheHits, warm.CenterCacheHits)
	}
	if warm.DecodedMemoResets != 0 {
		t.Fatalf("memo reset %d times on a 61-node graph", warm.DecodedMemoResets)
	}
}

// TestStatsPartnerSlots: a publish carries the warm epoch's partner slots
// into the successor and clears only the ones the batch may have changed,
// so after a 1-edge insert /stats counts slots inherited and dropped (and
// the publish's copied bytes and inherit time), and re-running the battery
// refills only dropped slots, fewer than the tables held.
func TestStatsPartnerSlots(t *testing.T) {
	s := fastpathTestServer(t, Config{})
	ctx := context.Background()
	battery := []string{"A->B; B->C", "A->B; A->C", "A->B; B->C; C->A", "B->D; C->D", "D->A"}
	run := func() {
		for _, q := range battery {
			if _, err := s.Query(ctx, q, ""); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	run()
	run()
	warm := s.Stats()
	if warm.PartnerSlotsInherited != 0 || warm.PartnerSlotsDropped != 0 {
		t.Fatalf("no publish yet, but partner_slots_inherited/dropped = %d/%d", warm.PartnerSlotsInherited, warm.PartnerSlotsDropped)
	}
	if warm.PublishCopiedBytes != 0 || len(warm.PublishInheritUS) != 0 {
		t.Fatalf("no publish yet, but publish_copied_bytes = %d, publish_inherit_us = %v", warm.PublishCopiedBytes, warm.PublishInheritUS)
	}
	// A forward edge from the middle of the DAG between two nodes that do
	// not reach each other yet: it changes the cover but keeps the DAG.
	snap, release := s.db.Pin()
	var e [2]graph.NodeID
	for u := graph.NodeID(20); u < 59 && e == ([2]graph.NodeID{}); u++ {
		for v := u + 1; v < 60; v++ {
			if ok, err := snap.Reaches(u, v); err != nil {
				t.Fatal(err)
			} else if !ok {
				e = [2]graph.NodeID{u, v}
				break
			}
		}
	}
	release()
	if e == ([2]graph.NodeID{}) {
		t.Fatal("every node from 20 on reaches every later node; no edge to insert")
	}
	ir, err := s.InsertEdges(ctx, [][2]graph.NodeID{e})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Applied != 1 || ir.LabelEntries == 0 {
		t.Fatalf("insert %+v: want one applied edge that changes the cover", ir)
	}
	after := s.Stats()
	kept, dropped := after.PartnerSlotsInherited, after.PartnerSlotsDropped
	if kept == 0 || dropped == 0 {
		t.Fatalf("1-edge insert: partner_slots_inherited = %d, partner_slots_dropped = %d; want both > 0", kept, dropped)
	}
	if after.PartnerTables != warm.PartnerTables {
		t.Fatalf("the publish carried %d of %d partner tables", after.PartnerTables, warm.PartnerTables)
	}
	publishes := int64(0)
	for _, n := range after.PublishInheritUS {
		publishes += n
	}
	if after.PublishCopiedBytes == 0 || publishes != 1 {
		t.Fatalf("1-edge insert: publish_copied_bytes = %d, publish_inherit_us = %v; want bytes and one publish", after.PublishCopiedBytes, after.PublishInheritUS)
	}
	run()
	refills := s.Stats().CenterCacheMisses - after.CenterCacheMisses
	if refills >= kept+dropped || refills > dropped {
		t.Fatalf("re-running the battery filled %d slots; the tables held %d and the publish dropped %d", refills, kept+dropped, dropped)
	}
	checkPartnersExact(t, s)
}

// TestStatsProjectionBytes: /stats projection_bytes is what the current
// epoch's memoized projection sets occupy, 8·RankWords(|ext(side)|) bytes
// each — a set over X for π_X(X→Y), over Y for π_Y. Planning a query
// memoizes both projections of each of its label pairs, which its semijoin
// groups then read.
func TestStatsProjectionBytes(t *testing.T) {
	db, err := gdb.Build(testGraph(1, 200), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := New(db, Config{})
	ctx := context.Background()
	g := db.Graph()
	setBytes := func(name string) int { return 8 * gdb.RankWords(g.ExtentSize(g.Labels().Lookup(name))) }
	if got := s.Stats().ProjectionBytes; got != 0 {
		t.Fatalf("projection_bytes = %d before any query", got)
	}

	const q = "A->B; B->C"
	snap, release := db.Pin()
	plan, _, err := s.plan(snap, pattern.MustParse(q), exec.DPS)
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
	// π_A(A→B), π_B(A→B), π_B(B→C) and π_C(B→C).
	if got, want := s.Stats().ProjectionBytes, setBytes("A")+2*setBytes("B")+setBytes("C"); got != want {
		t.Fatalf("after %s: projection_bytes = %d, want %d", q, got, want)
	}
	checkProjectionsExact(t, s) // memoizes both sets of every label pair
	// Every label is the X of nl pairs and the Y of nl.
	nl, want := g.Labels().Len(), 0
	for l := graph.Label(0); int(l) < nl; l++ {
		want += 2 * nl * 8 * gdb.RankWords(g.ExtentSize(l))
	}
	if got := s.Stats().ProjectionBytes; got != want {
		t.Fatalf("all pairs memoized: projection_bytes = %d, want %d", got, want)
	}
}
