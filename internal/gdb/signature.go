package gdb

import (
	"encoding/binary"
	"maps"

	"fastmatch/internal/graph"
	"fastmatch/internal/storage"
)

// Signature is the per-label degree/fan-signature table of one epoch: for
// every ordered label pair (X, Y) it carries |W(X, Y)| and the exact
// R-join size estimate Σ_{w∈W(X,Y)} |F_X(w)|·|T_Y(w)|.
//
// The table is built from the cover's inversion at Build and from the
// stored codes' inversion on Open, and maintained
// incrementally on edge inserts and deletes by retracting and re-adding
// the contribution of every center a batch touches. It seeds the
// optimizer's cost model with exact fan statistics (|W(X, Y)| and the
// join size per edge) without any W-table or cluster scans at plan time.
//
// Like every other Snap structure it is immutable within an epoch; the
// snapshot writer clones it lazily before the first mutation.
type Signature struct {
	pairs map[wKey]PairStat
}

// PairStat is the fan signature of one ordered label pair (X, Y).
type PairStat struct {
	// Centers is |W(X, Y)|: the number of centers with a non-empty
	// X-labeled F-subcluster and a non-empty Y-labeled T-subcluster.
	// Zero means the pair has no possible R-join results.
	Centers int
	// JoinSize is Σ_{w∈W(X,Y)} |F_X(w)|·|T_Y(w)| — exactly the value
	// Snap.JoinSize computes by scanning, maintained incrementally.
	JoinSize int64
}

func newSignature() *Signature {
	return &Signature{pairs: make(map[wKey]PairStat)}
}

// Pair returns the fan signature of (x, y); the zero PairStat when the
// pair has no centers (W(x, y) = ∅).
func (sig *Signature) Pair(x, y graph.Label) PairStat { return sig.pairs[wKey{x, y}] }

// NumPairs returns the number of label pairs with at least one center.
func (sig *Signature) NumPairs() int { return len(sig.pairs) }

// Equal reports whether two signature tables hold identical statistics
// (the differential-test predicate: incrementally maintained ==
// recomputed from scratch).
func (sig *Signature) Equal(o *Signature) bool {
	return maps.Equal(sig.pairs, o.pairs)
}

func (sig *Signature) clone() *Signature {
	return &Signature{pairs: maps.Clone(sig.pairs)}
}

// addCenter adds (sign 1) or retracts (sign -1) one center's
// contribution: its non-empty F-subcluster labels/sizes and T-subcluster
// labels/sizes (parallel slices). A retraction passes the sizes the
// contribution was added with.
func (sig *Signature) addCenter(sign int64, fls []graph.Label, fsz []int, tls []graph.Label, tsz []int) {
	for i, x := range fls {
		for j, y := range tls {
			k := wKey{x, y}
			ps := sig.pairs[k]
			ps.Centers += int(sign)
			ps.JoinSize += sign * int64(fsz[i]) * int64(tsz[j])
			if ps == (PairStat{}) {
				delete(sig.pairs, k)
			} else {
				sig.pairs[k] = ps
			}
		}
	}
}

// Signature returns this epoch's fan-signature table. The table is
// immutable and shared; callers must not mutate it.
func (s *Snap) Signature() *Signature { return s.sig }

// ComputeSignature rebuilds the fan-signature table from scratch by one
// scan of the cluster index: the oracle the differential tests compare the
// built, reopened and incrementally maintained tables against.
func (s *Snap) ComputeSignature() (*Signature, error) {
	if s.db.closed.Load() {
		return nil, ErrClosed
	}
	type slotRef struct {
		w   graph.NodeID
		dir byte
		l   graph.Label
		rid uint64
	}
	// Collect the slot directory first, then read record lengths: heap
	// reads do not happen inside the tree scan.
	var slots []slotRef
	err := s.cluster.Scan(clusterKey(0, dirF, 0), func(key []byte, val uint64) bool {
		if len(key) == 9 {
			w, l := binary.BigEndian.Uint32(key[0:4]), binary.BigEndian.Uint32(key[5:9])
			slots = append(slots, slotRef{graph.NodeID(w), key[4], graph.Label(l), val})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	// Keys scan in (center, dir, label) order, so one pass groups each
	// center's slots; dir indexes ls and sz.
	sig := newSignature()
	var ls [2][]graph.Label
	var sz [2][]int
	for i, sl := range slots {
		rec, err := s.db.heap.Read(storage.DecodeRID(sl.rid))
		if err != nil {
			return nil, err
		}
		ls[sl.dir] = append(ls[sl.dir], sl.l)
		sz[sl.dir] = append(sz[sl.dir], int(binary.LittleEndian.Uint32(rec)))
		if i+1 == len(slots) || slots[i+1].w != sl.w {
			sig.addCenter(1, ls[dirF], sz[dirF], ls[dirT], sz[dirT])
			ls, sz = [2][]graph.Label{ls[0][:0], ls[1][:0]}, [2][]int{sz[0][:0], sz[1][:0]}
		}
	}
	return sig, nil
}
