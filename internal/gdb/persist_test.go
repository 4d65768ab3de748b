package gdb

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fastmatch/internal/graph"
)

func TestPersistAndOpen(t *testing.T) {
	g := randomGraph(31, 300, 600, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.pages")

	built, err := Build(g, Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	// Capture reference facts from the built database.
	type probe struct{ u, v graph.NodeID }
	var probes []probe
	var want []bool
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u += 7 {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v += 11 {
			ok, err := built.Reaches(u, v)
			if err != nil {
				t.Fatal(err)
			}
			probes = append(probes, probe{u, v})
			want = append(want, ok)
		}
	}
	wantCenters := built.NumCenters()
	wantCover := built.CoverSize()
	aLbl := g.Labels().Lookup("A")
	bLbl := g.Labels().Lookup("B")
	wantW, err := built.Centers(aLbl, bLbl)
	if err != nil {
		t.Fatal(err)
	}
	wantJS, err := built.JoinSize(aLbl, bLbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk only.
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if db.CoverSize() != wantCover {
		t.Fatalf("cover size %d, want %d", db.CoverSize(), wantCover)
	}
	if db.NumCenters() != wantCenters {
		t.Fatalf("centers %d, want %d", db.NumCenters(), wantCenters)
	}
	// Graph reconstructed faithfully.
	g2 := db.Graph()
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("graph mismatch: %v vs %v", g2, g)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if g2.LabelNameOf(v) != g.LabelNameOf(v) {
			t.Fatalf("label of node %d changed", v)
		}
	}
	// Reachability answers identical.
	for i, pr := range probes {
		ok, err := db.Reaches(pr.u, pr.v)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want[i] {
			t.Fatalf("Reaches(%d,%d) = %v after reopen, want %v", pr.u, pr.v, ok, want[i])
		}
	}
	// W-table and stats identical.
	gotW, err := db.Centers(g2.Labels().Lookup("A"), g2.Labels().Lookup("B"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotW) != len(wantW) {
		t.Fatalf("W(A,B) size %d, want %d", len(gotW), len(wantW))
	}
	gotJS, err := db.JoinSize(g2.Labels().Lookup("A"), g2.Labels().Lookup("B"))
	if err != nil {
		t.Fatal(err)
	}
	if gotJS != wantJS {
		t.Fatalf("JoinSize %d, want %d", gotJS, wantJS)
	}
}

// readDBFiles returns the page file and manifest contents.
func readDBFiles(t *testing.T, path string) ([]byte, []byte) {
	t.Helper()
	pages, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	man, err := os.ReadFile(manifestPath(path))
	if err != nil {
		t.Fatal(err)
	}
	return pages, man
}

// reopenAndRepersist opens the database at path, persists it again
// unchanged, and closes it.
func reopenAndRepersist(t *testing.T, path string) {
	t.Helper()
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(path); err != nil {
		db.Close()
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistReopenByteStable: Persist→Open→Persist must not change a byte
// of the page file or the manifest — for a freshly bulk-built database and
// for one whose trees have absorbed point inserts. Re-persisting reuses the
// already-written graph records instead of appending fresh copies.
func TestPersistReopenByteStable(t *testing.T) {
	t.Run("bulk-built", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "db.pages")
		g := randomGraph(13, 80, 160, 4)
		db, err := Build(g, Options{Path: path}) // Build persists automatically
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		pages0, man0 := readDBFiles(t, path)
		reopenAndRepersist(t, path)
		pages1, man1 := readDBFiles(t, path)
		if string(man0) != string(man1) {
			t.Fatalf("manifest changed across reopen:\n%s\nvs\n%s", man0, man1)
		}
		if string(pages0) != string(pages1) {
			t.Fatalf("page file changed across reopen: %d vs %d bytes", len(pages0), len(pages1))
		}
	})
	t.Run("insert-built", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "db.pages")
		g := randomGraph(14, 40, 60, 3)
		db, err := Build(g, Options{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			u := graph.NodeID((i * 7) % 40)
			v := graph.NodeID((i*13 + 5) % 40)
			if _, err := db.ApplyEdgeInsert(u, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		pages0, man0 := readDBFiles(t, path)
		reopenAndRepersist(t, path)
		pages1, man1 := readDBFiles(t, path)
		if string(man0) != string(man1) {
			t.Fatalf("manifest changed across reopen:\n%s\nvs\n%s", man0, man1)
		}
		if string(pages0) != string(pages1) {
			t.Fatalf("page file changed across reopen: %d vs %d bytes", len(pages0), len(pages1))
		}
	})
}

// TestManifestRecordsBulkBuilt: the manifest distinguishes a pristine
// bulk-loaded database from one whose trees have been point-updated.
func TestManifestRecordsBulkBuilt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.pages")
	g := randomGraph(15, 30, 45, 3)
	db, err := Build(g, Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if !db.bulkBuilt {
		t.Fatal("freshly built db not marked bulk-built")
	}
	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !re.bulkBuilt {
		t.Fatal("reopened pristine db lost bulk-built mark")
	}
	if _, err := re.ApplyEdgeInsert(5, 28); err != nil {
		t.Fatal(err)
	}
	if re.bulkBuilt {
		t.Fatal("db still marked bulk-built after a point insert")
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.bulkBuilt {
		t.Fatal("bulk-built mark resurrected after reopen")
	}
	db.Close()
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing.pages"), Options{}); err == nil {
		t.Fatal("expected error for missing manifest")
	}
	// Corrupt manifest.
	path := filepath.Join(dir, "bad.pages")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".manifest", []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("expected error for corrupt manifest")
	}
	// Wrong version.
	if err := os.WriteFile(path+".manifest", []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("expected error for bad version")
	}

	// Graph records that contradict their count or the node count: Open
	// returns an error rather than panicking while it rebuilds the graph.
	g := randomGraph(16, 20, 30, 3)
	for _, tc := range []struct {
		name string
		rec  []byte // the edge record the manifest points at; nil: the node record
	}{
		{"edges_rid names the node record", nil},
		{"count larger than its record", []byte{5, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0}},
		{"endpoint past the node count", []byte{1, 0, 0, 0, 1, 0, 0, 0, 20, 0, 0, 0}},
	} {
		p := filepath.Join(dir, "records.pages")
		db, err := Build(g, Options{Path: p})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(manifestPath(p))
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		m.EdgesRID = m.NodesRID
		if tc.rec != nil {
			rid, err := db.heap.Insert(tc.rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			m.EdgesRID = rid.Encode()
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if raw, err = json.Marshal(&m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath(p), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p, Options{}); err == nil {
			t.Errorf("%s: Open succeeded", tc.name)
		}
	}
}
