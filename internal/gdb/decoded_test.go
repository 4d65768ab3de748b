package gdb

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"fastmatch/internal/graph"
)

// subclusters returns center w's decoded subclusters: their keys and
// member lists, in key order.
func subclusters(s *Snap, w graph.NodeID) (keys []uint32, lists [][]graph.NodeID) {
	c, i := s.clusters[w>>chunkBits], int(w&chunkMask)
	for j := c.first[i]; j < c.first[i+1]; j++ {
		keys = append(keys, c.keys[j])
		lists = append(lists, c.members[c.off[j]:c.off[j+1]])
	}
	return keys, lists
}

// sameSubclusters reports whether w's decoded subclusters are equal in a
// and b.
func sameSubclusters(a, b *Snap, w graph.NodeID) bool {
	ka, la := subclusters(a, w)
	kb, lb := subclusters(b, w)
	return slices.Equal(ka, kb) && slices.EqualFunc(la, lb, slices.Equal)
}

// checkDecoded compares s's decoded index with s's trees and with cold, a
// cold decode of them (coldView): every node's codes with its base-table
// record read through the pool, and every center's subclusters with the
// cluster index, key for key, and with the inversion of the stored codes.
func checkDecoded(t testing.TB, s, cold *Snap, what string) {
	t.Helper()
	nl := s.g.Labels().Len()
	for v := graph.NodeID(0); int(v) < s.g.NumNodes(); v++ {
		in, out := s.codesOf(v)
		gin, err := s.GetIn(v)
		if err != nil {
			t.Fatal(err)
		}
		gout, err := s.GetOut(v)
		if err != nil {
			t.Fatal(err)
		}
		cin, cout := cold.codesOf(v)
		if !slices.Equal(in, gin) || !slices.Equal(out, gout) || !slices.Equal(in, cin) || !slices.Equal(out, cout) {
			t.Fatalf("%s: decoded codes of node %d = %v / %v, base table holds %v / %v, cold decode %v / %v",
				what, v, in, out, gin, gout, cin, cout)
		}
		keys, _ := subclusters(s, v)
		held := 0
		for _, dir := range []byte{dirF, dirT} {
			for l := graph.Label(0); int(l) < nl; l++ {
				got := s.subcluster(v, dir, l)
				want, err := s.clusterLookup(v, dir, l)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) || !slices.Equal(got, cold.subcluster(v, dir, l)) {
					t.Fatalf("%s: decoded subcluster (%d, %d, %d) = %v, index holds %v, cold decode %v",
						what, v, dir, l, got, want, cold.subcluster(v, dir, l))
				}
				if len(want) > 0 {
					held++
				}
			}
		}
		if len(keys) != held {
			t.Fatalf("%s: center %d has %d decoded subclusters, the index holds %d", what, v, len(keys), held)
		}
	}
}

// checkChunksShared checks, between an epoch and a successor that only
// insert batches separate, that the decoded index shares by pointer exactly
// the chunks holding no node whose codes changed and no center whose
// subclusters changed, and that it shared some and rebuilt some of each.
func checkChunksShared(t *testing.T, old, next *Snap) {
	t.Helper()
	n := old.g.NumNodes()
	changedCode := make([]bool, n)
	changedCenter := make([]bool, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		a, b := old.codes[v>>chunkBits], next.codes[v>>chunkBits]
		i := v & chunkMask
		changedCode[v] = !slices.Equal(a.In(i), b.In(i)) || !slices.Equal(a.Out(i), b.Out(i))
		changedCenter[v] = !sameSubclusters(old, next, v)
	}
	checkShared(t, "codes", old.codes, next.codes, changedCode)
	checkShared(t, "clusters", old.clusters, next.clusters, changedCenter)
}

func checkShared[T any](t *testing.T, what string, a, b []*T, changed []bool) {
	t.Helper()
	shared, rebuilt := 0, 0
	for ci := range a {
		lo, hi := chunkRange(ci, len(changed))
		switch touched, same := slices.Contains(changed[lo:hi], true), a[ci] == b[ci]; {
		case same && touched:
			t.Fatalf("%s chunk %d holds a changed entry but is shared", what, ci)
		case !same && !touched:
			t.Fatalf("%s chunk %d holds no changed entry but was rebuilt", what, ci)
		case same:
			shared++
		default:
			rebuilt++
		}
	}
	if shared == 0 || rebuilt == 0 {
		t.Fatalf("%s: %d chunks shared and %d rebuilt; want both", what, shared, rebuilt)
	}
}

// TestDecodedIndexSurvivesPersistOpen: a file-backed database that took a
// mixed stream of inserts and deletes, persisted and reopened, decodes the
// same index the live epoch held, and derives the fan signature the
// cluster index yields.
func TestDecodedIndexSurvivesPersistOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.fdb")
	g := randomGraph(12, 700, 900, 4)
	db, err := Build(g, Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	rng, cur := rand.New(rand.NewSource(3)), g
	for i := range 6 {
		cur = publishBatch(t, db, rng, cur, i)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	live, release := db.Pin()
	defer release()
	defer db.Close()

	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	opened, releaseOpened := re.Pin()
	defer releaseOpened()
	if !slices.Equal(opened.g.Successors(0), cur.Successors(0)) || opened.g.NumEdges() != cur.NumEdges() {
		t.Fatal("the reopened graph is not the live one")
	}
	checkDecoded(t, opened, live, "reopened")
	sig, err := opened.ComputeSignature()
	if err != nil {
		t.Fatal(err)
	}
	if !opened.Signature().Equal(sig) || !opened.Signature().Equal(live.Signature()) {
		t.Fatal("the reopened fan signature differs from the cluster index's or the live epoch's")
	}
}
