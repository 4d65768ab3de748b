package gdb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fastmatch/internal/graph"
)

// deleteFragmented builds a database at path, fragments it with a mix of
// inserts and deletes across several synced batches, and returns the
// ground-truth graph after all mutations.
func deleteFragmented(t *testing.T, path string) *graph.Graph {
	t.Helper()
	g := randomGraph(41, 40, 80, 3)
	db, err := Build(g, Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	cur := g
	// Deletes of known-present edges: walk the adjacency deterministically.
	for i := 0; i < 12; i++ {
		u := graph.NodeID((i * 11) % 40)
		succ := cur.Successors(u)
		if len(succ) == 0 {
			continue
		}
		v := succ[i%len(succ)]
		if _, err := db.ApplyEdgeDelete(u, v); err != nil {
			t.Fatal(err)
		}
		cur = cur.WithoutEdge(u, v)
	}
	for i := 0; i < 6; i++ {
		u := graph.NodeID((i * 7) % 40)
		v := graph.NodeID((i*13 + 3) % 40)
		st, err := db.ApplyEdgeInsert(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Duplicate {
			cur = cur.WithEdge(u, v)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return cur
}

// TestPersistReopenByteStableAfterDeletes: S4 — a database fragmented by
// deletes must survive Persist→Open→Persist without a byte of the page file
// or manifest changing, and a reopened copy must still pass the full
// consistency sweep.
func TestPersistReopenByteStableAfterDeletes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.pages")
	cur := deleteFragmented(t, path)

	pages0, man0 := readDBFiles(t, path)
	reopenAndRepersist(t, path)
	pages1, man1 := readDBFiles(t, path)
	if string(man0) != string(man1) {
		t.Fatalf("manifest changed across reopen:\n%s\nvs\n%s", man0, man1)
	}
	if string(pages0) != string(pages1) {
		t.Fatalf("page file changed across reopen: %d vs %d bytes", len(pages0), len(pages1))
	}

	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkIndexConsistent(t, re, cur)
}

// TestRepackAfterDeletes: S4 — repacking a delete-fragmented file (lazy CoW
// deletion leaves dead cells and empty leaves behind) produces a
// bulk-loaded, byte-deterministic file that answers identically and is no
// larger than the fragmented source.
func TestRepackAfterDeletes(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.fdb")
	cur := deleteFragmented(t, src)

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
			t.Fatalf("repack is not byte-stable: %s differs from %s", pair[0], pair[1])
		}
	}

	srcInfo, err := os.Stat(src)
	if err != nil {
		t.Fatal(err)
	}
	packedInfo, err := os.Stat(p1)
	if err != nil {
		t.Fatal(err)
	}
	if packedInfo.Size() > srcInfo.Size() {
		t.Fatalf("repack grew the file: %d -> %d bytes", srcInfo.Size(), packedInfo.Size())
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
