package gdb_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/xmark"
)

// TestDecodedMemoOverflowMidQuery shrinks the partner tables' bound until
// they overflow and are dropped many times inside every operator, and
// checks that nothing observable changes: the tables are a cache, so a
// query that keeps losing them returns the reference executor's rows in
// its order.
func TestDecodedMemoOverflowMidQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder()
	const n = 120
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(4))))
	}
	for i := 0; i < 170; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	db, err := gdb.Build(b.Build(), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetDecodedMemoBound(8)
	snap, release := db.Pin()
	defer release()

	ctx := context.Background()
	rows := 0
	for _, ps := range []string{
		"A->B", "A->B; B->C", "A->B; A->C; A->D", "A->B; B->C; C->A", "A->B; A->C; B->D; C->D",
	} {
		p := pattern.MustParse(ps)
		for _, algo := range []exec.Algorithm{exec.DP, exec.DPS} {
			ref, err := exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{NoFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			want, err := exec.RunSnapConfig(ctx, snap, ref, exec.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.RunSnapConfig(ctx, snap, plan, exec.RunConfig{})
			if err != nil {
				t.Fatalf("%q %v: %v", ps, algo, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%q %v: %d rows under a resetting memo, reference has %d", ps, algo, got.Len(), want.Len())
			}
			rows += want.Len()
		}
	}
	if rows == 0 {
		t.Fatal("whole battery empty: graph too sparse to prove anything")
	}
	if _, _, _, resets := db.DecodedMemoStats(); resets < 10 {
		t.Fatalf("memo reset only %d times; the bound hook did not bite", resets)
	}
}

// TestDecodedMemoFusedSelectionTable: a Fetch that absorbs the Selection
// closing a cycle opens one partner table more than the plan's own steps —
// the Selection's, read from its bound endpoint. With the bound shrunk so
// that table does not fit beside the Fetch's, opening it forgets every
// table of the epoch, the Fetch's included, in the middle of the operator.
// The lists a query loaded stay its own, so the fused query still returns
// the reference rows.
func TestDecodedMemoFusedSelectionTable(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 1500, Seed: 5}).Graph
	db, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap, release := db.Pin()
	defer release()
	ctx := context.Background()

	fused := 0
	for _, ps := range []string{
		"site->item; site->person; item->category; person->category",
		"open_auction->person; person->category; open_auction->category",
	} {
		p := pattern.MustParse(ps)
		for _, algo := range []exec.Algorithm{exec.DP, exec.DPS} {
			ref, err := exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{NoFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			want, err := exec.RunSnapConfig(ctx, snap, ref, exec.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{})
			if err != nil {
				t.Fatal(err)
			}
			// Room for the largest single table's slots (two units per node of
			// its bound label) and a few lists, never for two tables.
			largest := 0
			for _, name := range p.Nodes {
				largest = max(largest, g.ExtentSize(g.Labels().Lookup(name)))
			}
			db.SetDecodedMemoBound(2*largest + 32)
			_, _, _, before := db.DecodedMemoStats()
			res, traces, err := exec.Run(ctx, snap, plan, true, exec.RunConfig{})
			if err != nil {
				t.Fatalf("%q %v: %v", ps, algo, err)
			}
			got, err := res.Table(want.Cols)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%q %v: %d rows with the Selection's table evicting the Fetch's, reference has %d",
					ps, algo, got.Len(), want.Len())
			}
			if last := traces[len(traces)-1]; last.Fused && want.Len() > 0 {
				fused++
				if _, _, _, after := db.DecodedMemoStats(); after == before {
					t.Fatalf("%q %v: both tables fit a bound of %d units; the case proves nothing", ps, algo, 2*largest+32)
				}
			}
		}
	}
	if fused == 0 {
		t.Fatal("no cyclic plan ended on a fused Selection with rows")
	}
}
