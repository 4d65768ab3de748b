package gdb

import (
	"errors"
	"fmt"
	"slices"

	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
)

// ErrBadDelete reports an edge delete whose endpoints lie outside the
// graph's node range.
var ErrBadDelete = errors.New("gdb: edge endpoint out of range")

// EdgeDeleteStats summarises what one edge delete changed.
type EdgeDeleteStats struct {
	// Missing is set when the edge was not present; nothing was changed.
	// A batch whose every edge is missing publishes no epoch.
	Missing bool
	// RemovedLabelEntries is the number of stale 2-hop label entries the
	// repair removed (entries whose every support path used the edge).
	RemovedLabelEntries int
	// AddedLabelEntries is the number of entries the repair re-added for
	// still-reachable pairs the removals had left uncovered.
	AddedLabelEntries int
	// NewCenters / DroppedCenters count centers the re-cover elected and
	// centers whose subclusters emptied and were retired from the R-join
	// index (their W-table rows go with them).
	NewCenters     int
	DroppedCenters int
	// RemovedWPairs / NewWPairs count W-table entries that lost / gained a
	// center — label pairs (X, Y) whose R-join center list changed.
	RemovedWPairs int
	NewWPairs     int
}

// ApplyEdgeDelete removes one edge; it is ApplyEdgeDeletes with a
// single-element batch.
func (db *DB) ApplyEdgeDelete(u, v graph.NodeID) (EdgeDeleteStats, error) {
	sts, err := db.ApplyEdgeDeletes([][2]graph.NodeID{{u, v}})
	if len(sts) == 1 {
		return sts[0], err
	}
	return EdgeDeleteStats{}, err
}

// ApplyEdgeDeletes removes the edges u→v in order and incrementally
// repairs every persistent structure — no rebuild. Per edge:
//
//  1. The 2-hop cover is repaired by over-delete/re-insert
//     (reach.Incremental.DeleteEdge): label entries whose only support
//     path used u→v are identified by pruned re-BFS from the affected
//     centers and removed, then any still-supported pairs the removals
//     orphaned are re-covered. Both directions are reported as deltas.
//  2. Every node a delta names gets its base-table record (T_X in/out
//     codes) rewritten from its repaired codes in the incremental
//     labeling: a new heap record under a copy-on-write upsert.
//  3. The same deltas, inverted per center, shrink or extend the F-/T-
//     subclusters in the cluster index. Subcluster slots that empty are
//     deleted; a center whose every subcluster emptied is dropped
//     (including its self entries), and a center the re-cover elected is
//     created with its self entries.
//  4. W-table rows are retracted for label pairs (X, Y) a center no
//     longer completes and extended for pairs it newly completes; rows
//     whose center list empties are deleted. Each changed row is written
//     once, after the batch's last edge.
//
// Like inserts, the batch is MVCC: all tree updates go to a private next
// snapshot through page-level copy-on-write and become visible in ONE
// atomic epoch publish at the end. Deleting an absent edge is a no-op
// reported via Stats.Missing; a batch that changes nothing (every edge
// absent, or listed twice — the first occurrence removes it) publishes no
// epoch. The returned slice covers the successfully applied prefix, which
// is still published on error (see ApplyEdgeInserts). Updates are
// in-memory-durable only; call Sync to persist them.
func (db *DB) ApplyEdgeDeletes(edges [][2]graph.NodeID) ([]EdgeDeleteStats, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	w := newSnapWriter(db, db.mgr.Current()) // stable: this goroutine is the only publisher

	sts := make([]EdgeDeleteStats, 0, len(edges))
	var firstErr error
	for _, e := range edges {
		st, err := w.applyOneDelete(e[0], e[1])
		if err != nil {
			firstErr = err
			break
		}
		sts = append(sts, st)
	}
	if err := w.finish(); err != nil && firstErr == nil {
		firstErr = err
	}
	return sts, firstErr
}

func (w *snapWriter) applyOneDelete(u, v graph.NodeID) (EdgeDeleteStats, error) {
	var st EdgeDeleteStats
	n := graph.NodeID(w.g.NumNodes())
	if u < 0 || v < 0 || u >= n || v >= n {
		return st, fmt.Errorf("%w: edge %d->%d, graph has %d nodes", ErrBadDelete, u, v, n)
	}
	if !w.has(u, v) {
		st.Missing = true
		return st, nil
	}
	w.ensureIncremental()
	deltas := w.db.inc.DeleteEdge(u, v)
	w.removed = append(w.removed, [2]graph.NodeID{u, v})
	w.pending[[2]graph.NodeID{u, v}]--
	w.changed = true // the edge list shrank even if no label moved
	for _, d := range deltas {
		if d.Removed {
			st.RemovedLabelEntries++
		} else {
			st.AddedLabelEntries++
		}
	}
	if len(deltas) == 0 {
		return st, nil // a redundant edge: the cover never relied on it
	}

	cs, err := w.applyDeltas(deltas)
	if err != nil {
		return st, err
	}
	st.NewCenters = cs.born
	st.DroppedCenters = cs.died
	st.NewWPairs = cs.wAdded
	st.RemovedWPairs = cs.wRemoved
	return st, nil
}

// centerChangeStats aggregates what applyCenterDeltas did across the
// centers a delta set touched.
type centerChangeStats struct {
	born, died       int
	wAdded, wRemoved int
}

// applyCenterDeltas applies label deltas — additions and removals, over
// any number of centers — to the cluster index and the W-table. Per
// center, ascending:
//
//   - an out-side delta for node x adds x to / removes x from F-subcluster
//     (c, F, label(x)); in-side deltas drive the T-side symmetrically;
//   - a center that was not live gains its self entries (c, F/T, label(c))
//     before its first member (the ∪{w} convention of Section 3.2), and a
//     center left with no member but itself is dropped entirely — its
//     remaining keys are deleted and NumCenters shrinks;
//   - the W-table then absorbs the difference between the center's
//     non-empty subcluster label pairs before and after: c leaves W(X, Y)
//     for vanished pairs (rows whose center list empties are deleted) and
//     joins it for new ones.
//
// Emptied subcluster slots and retracted W rows are real B+-tree key
// deletions (DeleteCow), so readers of the next epoch never see them.
func (w *snapWriter) applyCenterDeltas(deltas []reach.LabelDelta) (centerChangeStats, error) {
	var cs centerChangeStats
	byCenter := make(map[graph.NodeID][]reach.LabelDelta)
	centers := make([]graph.NodeID, 0, 4)
	for _, d := range deltas {
		if _, ok := byCenter[d.Center]; !ok {
			centers = append(centers, d.Center)
		}
		byCenter[d.Center] = append(byCenter[d.Center], d)
	}
	slices.Sort(centers)

	for _, c := range centers {
		if err := w.applyOneCenter(c, byCenter[c], &cs); err != nil {
			return cs, err
		}
	}
	return cs, nil
}

func (w *snapWriter) applyOneCenter(c graph.NodeID, ds []reach.LabelDelta, cs *centerChangeStats) error {
	allF0, fsz0 := w.slotSizes(c, dirF)
	allT0, tsz0 := w.slotSizes(c, dirT)
	liveBefore := len(allF0) > 0 // a live center always has its self F entry

	// The fan signature is maintained by contribution replacement: retract
	// c's pre-update slot sizes now, re-add the post-update sizes below.
	w.ensureSig()
	w.sig.addCenter(-1, allF0, fsz0, allT0, tsz0)

	rem := make(map[uint32][]graph.NodeID) // by slotKey
	add := make(map[uint32][]graph.NodeID)
	hadRemovals := false
	for _, d := range ds {
		dir := dirT
		if d.Out {
			dir = dirF
		}
		k := slotKey(dir, w.g.LabelOf(d.Node))
		if d.Removed {
			rem[k] = append(rem[k], d.Node)
			hadRemovals = true
		} else {
			add[k] = append(add[k], d.Node)
		}
	}
	if !liveBefore && len(add) > 0 {
		cs.born++
		w.numCenters++
		for _, k := range []uint32{slotKey(dirF, w.g.LabelOf(c)), slotKey(dirT, w.g.LabelOf(c))} {
			add[k] = append(add[k], c)
		}
	}

	order := make([]uint32, 0, len(rem)+len(add))
	for k := range rem {
		order = append(order, k)
	}
	for k := range add {
		order = append(order, k)
	}
	slices.Sort(order)
	for _, k := range slices.Compact(order) {
		if err := w.updateClusterSlot(c, k, rem[k], add[k]); err != nil {
			return err
		}
	}

	// Death check: removals may have left the center with no member but
	// itself, in which case it must not survive — a spurious center would
	// add (c, c) rows to the W pair of its own label and change results.
	if liveBefore && hadRemovals && w.centerIsDead(c) {
		if err := w.dropCenterKeys(c); err != nil {
			return err
		}
		cs.died++
		w.numCenters--
	}

	allF1, fsz1 := w.slotSizes(c, dirF)
	allT1, tsz1 := w.slotSizes(c, dirT)
	w.sig.addCenter(1, allF1, fsz1, allT1, tsz1)
	if slices.Equal(allF0, allF1) && slices.Equal(allT0, allT1) {
		return nil
	}
	return w.updateWTablePairs(c, allF0, allT0, allF1, allT1, cs)
}

// updateClusterSlot applies member removals then additions to center c's
// key subcluster, deleting its key when it empties.
func (w *snapWriter) updateClusterSlot(c graph.NodeID, key uint32, rem, add []graph.NodeID) error {
	members := slices.Clone(w.subcluster(c, key))
	changed := false
	for _, x := range rem {
		n0 := len(members)
		members = removeSorted(members, x)
		changed = changed || len(members) != n0
	}
	for _, x := range add {
		n0 := len(members)
		members = insertSorted(members, x)
		changed = changed || len(members) != n0
	}
	if !changed {
		return nil
	}
	if len(members) == 0 {
		return w.deleteSubcluster(c, key)
	}
	dir, l := splitKey(key)
	ck := clusterKey(c, dir, l)
	old, had, err := w.cluster.Get(ck)
	if err != nil {
		return err
	}
	nrid, err := w.db.heap.Insert(encodeNodeList(members))
	if err != nil {
		return err
	}
	nt, err := w.cluster.InsertCow(w.cow, ck, nrid.Encode())
	if err != nil {
		return err
	}
	w.cluster = nt
	w.setSubcluster(c, key, members)
	return w.supersede(old, had)
}

// deleteSubcluster deletes center c's key subcluster from the cluster
// index, superseding its record.
func (w *snapWriter) deleteSubcluster(c graph.NodeID, key uint32) error {
	dir, l := splitKey(key)
	ck := clusterKey(c, dir, l)
	old, had, err := w.cluster.Get(ck)
	if err != nil {
		return err
	}
	nt, _, err := w.cluster.DeleteCow(w.cow, ck)
	if err != nil {
		return err
	}
	w.cluster = nt
	w.setSubcluster(c, key, nil)
	return w.supersede(old, had)
}

// centerIsDead reports whether c's subclusters hold no node but c itself.
func (w *snapWriter) centerIsDead(c graph.NodeID) bool {
	_, lists := w.subclusters(c)
	for _, nodes := range lists {
		for _, m := range nodes {
			if m != c {
				return false
			}
		}
	}
	return true
}

// dropCenterKeys deletes every cluster-index key of center c (after a
// death check these are exactly its self entries).
func (w *snapWriter) dropCenterKeys(c graph.NodeID) error {
	keys, _ := w.subclusters(c)
	for _, key := range keys {
		if err := w.deleteSubcluster(c, key); err != nil {
			return err
		}
	}
	return nil
}

// updateWTablePairs moves center c between W rows to match its non-empty
// subcluster labels going from (allF0, allT0) to (allF1, allT1). It
// patches the batch's copy of each row (wRowOf); finish writes the rows.
func (w *snapWriter) updateWTablePairs(c graph.NodeID, allF0, allT0, allF1, allT1 []graph.Label, cs *centerChangeStats) error {
	// move applies, for every label pair of fs × ts that ofs × ots lacks,
	// c's joining (gain) or leaving the pair's row.
	move := func(fs, ts, ofs, ots []graph.Label, gain bool) error {
		for _, x := range fs {
			for _, y := range ts {
				if slices.Contains(ofs, x) && slices.Contains(ots, y) {
					continue
				}
				k := wKey{x, y}
				r, err := w.wRowOf(k)
				if err != nil {
					return err
				}
				n0 := len(r.ws)
				if gain {
					r.ws = insertSorted(r.ws, c)
				} else {
					r.ws = removeSorted(r.ws, c)
				}
				if len(r.ws) == n0 {
					continue
				}
				if gain {
					cs.wAdded++
				} else {
					cs.wRemoved++
				}
				r.flips = append(r.flips, c)
				w.touchedW[k] = struct{}{}
			}
		}
		return nil
	}
	if err := move(allF0, allT0, allF1, allT1, false); err != nil {
		return err
	}
	return move(allF1, allT1, allF0, allT0, true)
}

// removeSorted removes v from the sorted slice if present, returning the
// (possibly shared) slice.
func removeSorted(s []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i, found := slices.BinarySearch(s, v)
	if !found {
		return s
	}
	return slices.Delete(s, i, i+1)
}
