package gdb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fastmatch/internal/graph"
)

// TestRepackDeterministicAndEquivalent: repacking an insert-fragmented
// database produces a bulk-loaded file that answers identically, and two
// repacks of the same source are byte-identical (page file and manifest).
func TestRepackDeterministicAndEquivalent(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.fdb")

	g := randomGraph(31, 50, 90, 3)
	db, err := Build(g, Options{Path: src})
	if err != nil {
		t.Fatal(err)
	}
	// Fragment the file with point inserts across several batches.
	cur := g
	rngEdges := [][2]graph.NodeID{{1, 40}, {2, 41}, {3, 42}, {44, 5}, {45, 6}, {46, 7}}
	for _, e := range rngEdges {
		st, err := db.ApplyEdgeInsert(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		if !st.Duplicate {
			cur = cur.WithEdge(e[0], e[1])
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if db.bulkBuilt {
		t.Fatal("insert-updated database still claims bulk layout")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	p1 := filepath.Join(dir, "packed1.fdb")
	p2 := filepath.Join(dir, "packed2.fdb")
	if err := Repack(src, p1, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Repack(src, p2, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{p1, p2}, {manifestPath(p1), manifestPath(p2)}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("repack is not byte-stable: %s (%d bytes) differs from %s (%d bytes)",
				pair[0], len(a), pair[1], len(b))
		}
	}

	packed, err := Open(p1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer packed.Close()
	if !packed.bulkBuilt {
		t.Fatal("repacked database does not record bulk layout")
	}
	if packed.Graph().NumEdges() != cur.NumEdges() {
		t.Fatalf("repacked graph has %d edges, want %d", packed.Graph().NumEdges(), cur.NumEdges())
	}
	checkIndexConsistent(t, packed, cur)
}

// TestRepackRejectsInPlace: src == dst must fail before touching the file.
func TestRepackRejectsInPlace(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.fdb")
	db, err := Build(randomGraph(32, 20, 30, 2), Options{Path: src})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Repack(src, src, Options{}); err == nil {
		t.Fatal("in-place repack must be rejected")
	}
	after, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("rejected repack modified the source file")
	}
}
