package gdb

import (
	"math/rand"
	"path/filepath"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/xmark"
)

// sigOracle recomputes the fan-signature table from the snapshot's cluster
// index and fails the test on a scan error.
func sigOracle(t *testing.T, db *DB) *Signature {
	t.Helper()
	snap, release := db.Pin()
	defer release()
	sig, err := snap.ComputeSignature()
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// maintained returns the snapshot's live signature table.
func maintained(t *testing.T, db *DB) *Signature {
	t.Helper()
	snap, release := db.Pin()
	defer release()
	sig := snap.Signature()
	if sig == nil {
		t.Fatal("snapshot has no fan signature")
	}
	return sig
}

// TestSignatureBuildMatchesScan: the table assembled for free during the
// build sweep equals a from-scratch recomputation, and its JoinSize entries
// are exactly the scan-derived optimizer statistic.
func TestSignatureBuildMatchesScan(t *testing.T) {
	d := xmark.Generate(xmark.Config{Nodes: 2000, Seed: 5})
	db, err := Build(d.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	sig := maintained(t, db)
	if sig.NumPairs() == 0 {
		t.Fatal("empty signature on a non-trivial graph")
	}
	if !sig.Equal(sigOracle(t, db)) {
		t.Fatal("build-time signature != cluster-index recomputation")
	}

	snap, release := db.Pin()
	defer release()
	labels := d.Graph.Labels()
	checked := 0
	for x := graph.Label(0); int(x) < labels.Len(); x++ {
		for y := graph.Label(0); int(y) < labels.Len(); y++ {
			js, err := snap.JoinSize(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if got := sig.Pair(x, y).JoinSize; got != js {
				t.Fatalf("JoinSize(%v,%v): signature %d, scan %d", x, y, got, js)
			}
			if js > 0 {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-empty pairs cross-checked")
	}
}

// TestSignatureMaintainedUnderMixedStream: per-center retract/re-add under
// a random insert/delete stream keeps the table equal to the from-scratch
// recomputation at every step, including zeroed pairs being deleted (not
// left as zero entries, which would break Equal).
func TestSignatureMaintainedUnderMixedStream(t *testing.T) {
	d := xmark.Generate(xmark.Config{Nodes: 600, Seed: 11})
	g := d.Graph
	db, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(23))
	cur := g
	n := g.NumNodes()
	var have [][2]graph.NodeID
	for u := graph.NodeID(0); int(u) < n; u++ {
		for _, v := range cur.Successors(u) {
			have = append(have, [2]graph.NodeID{u, v})
		}
	}
	for i := 1; i <= 120; i++ {
		if rng.Intn(3) == 0 && len(have) > 0 {
			k := rng.Intn(len(have))
			u, v := have[k][0], have[k][1]
			have[k] = have[len(have)-1]
			have = have[:len(have)-1]
			if _, err := db.ApplyEdgeDelete(u, v); err != nil {
				t.Fatalf("op %d delete %d->%d: %v", i, u, v, err)
			}
			cur = cur.WithoutEdge(u, v)
		} else {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			st, err := db.ApplyEdgeInsert(u, v)
			if err != nil {
				t.Fatalf("op %d insert %d->%d: %v", i, u, v, err)
			}
			if !st.Duplicate {
				cur = cur.WithEdge(u, v)
				have = append(have, [2]graph.NodeID{u, v})
			}
		}
		if i%10 == 0 {
			if !maintained(t, db).Equal(sigOracle(t, db)) {
				t.Fatalf("op %d: maintained signature != recomputation", i)
			}
		}
	}
	if !maintained(t, db).Equal(sigOracle(t, db)) {
		t.Fatal("final: maintained signature != recomputation")
	}
}

// TestSignatureDeadPairDropped: deleting the only edge between two labels
// must remove the pair entry entirely — Pair reports zero Centers, and the
// cost model sees W(X, Y) empty again.
func TestSignatureDeadPairDropped(t *testing.T) {
	b := graph.NewBuilder()
	a0 := b.AddNode("A")
	b0 := b.AddNode("B")
	c0 := b.AddNode("C")
	b.AddEdge(a0, b0)
	b.AddEdge(b0, c0)
	db, err := Build(b.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	snap, release := db.Pin()
	la := snap.Graph().Labels().Lookup("A")
	lb := snap.Graph().Labels().Lookup("B")
	release()

	if maintained(t, db).Pair(la, lb).Centers == 0 {
		t.Fatal("A->B pair missing before delete")
	}
	if _, err := db.ApplyEdgeDelete(a0, b0); err != nil {
		t.Fatal(err)
	}
	sig := maintained(t, db)
	if st := sig.Pair(la, lb); st.Centers != 0 || st.JoinSize != 0 {
		t.Fatalf("A->B pair survives its last edge: %+v", st)
	}
	if !sig.Equal(sigOracle(t, db)) {
		t.Fatal("post-delete signature != recomputation")
	}
}

// TestSignatureSurvivesPersistOpen: Open reattaches the signature by one
// cluster-index scan (no manifest format change), identical to the table
// the persisted database maintained.
func TestSignatureSurvivesPersistOpen(t *testing.T) {
	d := xmark.Generate(xmark.Config{Nodes: 1200, Seed: 7})
	path := filepath.Join(t.TempDir(), "sig.pages")
	db, err := Build(d.Graph, Options{Path: path}) // Build persists automatically
	if err != nil {
		t.Fatal(err)
	}
	want := maintained(t, db).clone()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !maintained(t, re).Equal(want) {
		t.Fatal("reopened signature != persisted database's")
	}
}
