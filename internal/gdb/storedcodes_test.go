package gdb_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
)

// TestStoredCodesFromDecoded settles that no stored code holds its own
// node, and so that the codes a reattached database's writer seeds its
// labeling from — the epoch's decoded codes minus the node itself — are
// exactly the base tables' records. It checks a fresh Build, the same
// database after a 200-operation mixed insert/delete stream, that database
// synced and reopened, and then written again on the seeded labeling,
// synced and reopened once more; and the three files the retired pll
// backend wrote, before and after a write.
func TestStoredCodesFromDecoded(t *testing.T) {
	check := func(what string, db *gdb.DB) {
		t.Helper()
		self, differ, err := db.CheckStoredCodes()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if self || differ {
			t.Fatalf("%s: a stored code holds its own node: %v; the decoded codes minus the node differ from the stored ones: %v", what, self, differ)
		}
	}
	path := filepath.Join(t.TempDir(), "mixed.fdb")
	g := pllRandomGraph(7, 150, 260, 4)
	db, err := gdb.Build(g, gdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	check("build", db)
	rng := rand.New(rand.NewSource(7))
	stream := func(db *gdb.DB, ops int) {
		t.Helper()
		n := db.Graph().NumNodes()
		for op := 0; op < ops; op++ {
			if rng.Intn(3) == 0 {
				// Delete an edge the graph holds.
				cur := db.Graph()
				u := graph.NodeID(rng.Intn(n))
				if succ := cur.Successors(u); len(succ) > 0 {
					if _, err := db.ApplyEdgeDelete(u, succ[rng.Intn(len(succ))]); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if _, err := db.ApplyEdgeInsert(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))); err != nil {
				t.Fatal(err)
			}
		}
	}
	stream(db, 200)
	check("after a mixed stream", db)
	reopen := func(db *gdb.DB) *gdb.DB {
		t.Helper()
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err := gdb.Open(path, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db = reopen(db)
	check("reopened", db)
	stream(db, 60)
	check("written after reopening", db)
	db = reopen(db)
	check("reopened again", db)
	db.Close()

	for _, fx := range pllFixtures {
		db := openPLLFixture(t, fx.name, fx.graph())
		check(fx.name, db)
		stream(db, 30)
		check(fx.name+" written", db)
	}
}
