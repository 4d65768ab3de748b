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
// The table is built for free during the cluster-index sweep of Build,
// recomputed by one cluster-index scan on Open, and maintained
// incrementally on edge inserts and deletes by retracting and re-adding
// the contribution of every center a batch touches. It powers the tier-2
// prefilter — a pattern edge (X, Y) whose pair entry is absent has
// W(X, Y) = ∅ and therefore provably no matches — and seeds the
// optimizer's cost model with exact fan statistics without any W-table
// or cluster scans at plan time.
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

// addCenter adds one center's contribution: its non-empty F-subcluster
// labels/sizes and T-subcluster labels/sizes (parallel slices).
func (sig *Signature) addCenter(fls []graph.Label, fsz []int, tls []graph.Label, tsz []int) {
	sig.applyCenter(1, fls, fsz, tls, tsz)
}

// removeCenter retracts a contribution previously added with the same
// slot sizes.
func (sig *Signature) removeCenter(fls []graph.Label, fsz []int, tls []graph.Label, tsz []int) {
	sig.applyCenter(-1, fls, fsz, tls, tsz)
}

func (sig *Signature) applyCenter(sign int64, fls []graph.Label, fsz []int, tls []graph.Label, tsz []int) {
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
// scan of the cluster index. It is the reattachment path of Open (no
// manifest format change) and the oracle the differential tests compare
// the incrementally maintained table against.
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
		if len(key) != 9 {
			return true
		}
		slots = append(slots, slotRef{
			w:   graph.NodeID(binary.BigEndian.Uint32(key[0:4])),
			dir: key[4],
			l:   graph.Label(binary.BigEndian.Uint32(key[5:9])),
			rid: val,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	sig := newSignature()
	var fls, tls []graph.Label
	var fsz, tsz []int
	flush := func() {
		if len(fls) > 0 || len(tls) > 0 {
			sig.addCenter(fls, fsz, tls, tsz)
		}
		fls, tls, fsz, tsz = fls[:0], tls[:0], fsz[:0], tsz[:0]
	}
	// Keys scan in (center, dir, label) order, so one pass groups
	// per-center slots.
	cur := graph.NodeID(0)
	started := false
	for _, sl := range slots {
		if started && sl.w != cur {
			flush()
		}
		cur, started = sl.w, true
		rec, err := s.db.heap.Read(storage.DecodeRID(sl.rid))
		if err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(rec))
		if n == 0 {
			continue
		}
		if sl.dir == dirF {
			fls = append(fls, sl.l)
			fsz = append(fsz, n)
		} else {
			tls = append(tls, sl.l)
			tsz = append(tsz, n)
		}
	}
	flush()
	return sig, nil
}
