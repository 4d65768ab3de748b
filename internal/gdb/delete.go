package gdb

import (
	"errors"
	"fmt"
	"slices"

	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
	"fastmatch/internal/storage"
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
//  2. Each delta rewrites its node's base-table record (T_X in/out codes)
//     through the append-only heap and a copy-on-write upsert.
//  3. The same deltas, inverted per center, shrink or extend the F-/T-
//     subclusters in the cluster index. Subcluster slots that empty are
//     deleted; a center whose every subcluster emptied is dropped
//     (including its self entries), and a center the re-cover elected is
//     created with its self entries.
//  4. W-table rows are retracted for label pairs (X, Y) a center no
//     longer completes and extended for pairs it newly completes; rows
//     whose center list empties are deleted.
//
// Like inserts, the batch is MVCC: all tree updates go to a private next
// snapshot through page-level copy-on-write and become visible in ONE
// atomic epoch publish at the end. Deleting an absent edge is a no-op
// reported via Stats.Missing; a batch that changes nothing (every edge
// absent, or listed twice — the first occurrence removes it) publishes no
// epoch. The returned slice covers the successfully applied prefix, which
// is still published on error. Updates are in-memory-durable only; call
// Sync to persist them.
func (db *DB) ApplyEdgeDeletes(edges [][2]graph.NodeID) ([]EdgeDeleteStats, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	cur := db.mgr.Current() // stable: this goroutine is the only publisher
	w := newSnapWriter(db, cur)

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
	if w.changed {
		w.publish(cur)
	}
	return sts, firstErr
}

func (w *snapWriter) applyOneDelete(u, v graph.NodeID) (EdgeDeleteStats, error) {
	var st EdgeDeleteStats
	n := graph.NodeID(w.g.NumNodes())
	if u < 0 || v < 0 || u >= n || v >= n {
		return st, fmt.Errorf("%w: edge %d->%d, graph has %d nodes", ErrBadDelete, u, v, n)
	}
	if !slices.Contains(w.g.Successors(u), v) {
		st.Missing = true
		return st, nil
	}
	if err := w.ensureIncremental(); err != nil {
		return st, err
	}

	deltas := w.db.inc.DeleteEdge(u, v)
	w.g = w.g.WithoutEdge(u, v)
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
	w.coverSize += st.AddedLabelEntries - st.RemovedLabelEntries
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

type clusterSlot struct {
	dir byte
	l   graph.Label
}

func (w *snapWriter) applyOneCenter(c graph.NodeID, ds []reach.LabelDelta, cs *centerChangeStats) error {
	allF0, fsz0, err := w.clusterSlotSizes(c, dirF, true)
	if err != nil {
		return err
	}
	allT0, tsz0, err := w.clusterSlotSizes(c, dirT, true)
	if err != nil {
		return err
	}
	liveBefore := len(allF0) > 0 // a live center always has its self F entry

	// The fan signature is maintained by contribution replacement: retract
	// c's pre-update slot sizes now, re-add the post-update sizes below.
	w.ensureSig()
	w.sig.removeCenter(allF0, fsz0, allT0, tsz0)

	rem := make(map[clusterSlot][]graph.NodeID)
	add := make(map[clusterSlot][]graph.NodeID)
	hadRemovals := false
	for _, d := range ds {
		dir := dirT
		if d.Out {
			dir = dirF
		}
		s := clusterSlot{dir, w.g.LabelOf(d.Node)}
		if d.Removed {
			rem[s] = append(rem[s], d.Node)
			hadRemovals = true
		} else {
			add[s] = append(add[s], d.Node)
		}
	}
	if !liveBefore && len(add) > 0 {
		cs.born++
		w.numCenters++
		lc := w.g.LabelOf(c)
		add[clusterSlot{dirF, lc}] = append(add[clusterSlot{dirF, lc}], c)
		add[clusterSlot{dirT, lc}] = append(add[clusterSlot{dirT, lc}], c)
	}

	slots := make(map[clusterSlot]struct{}, len(rem)+len(add))
	for s := range rem {
		slots[s] = struct{}{}
	}
	for s := range add {
		slots[s] = struct{}{}
	}
	order := make([]clusterSlot, 0, len(slots))
	for s := range slots {
		order = append(order, s)
	}
	slices.SortFunc(order, func(a, b clusterSlot) int {
		if a.dir != b.dir {
			return int(a.dir) - int(b.dir)
		}
		return int(a.l) - int(b.l)
	})
	for _, s := range order {
		if err := w.updateClusterSlot(c, s, rem[s], add[s]); err != nil {
			return err
		}
	}

	// Death check: removals may have left the center with no member but
	// itself, in which case it must not survive — a spurious center would
	// add (c, c) rows to the W pair of its own label and change results.
	if liveBefore && hadRemovals {
		dead, err := w.centerIsDead(c)
		if err != nil {
			return err
		}
		if dead {
			if err := w.dropCenterKeys(c); err != nil {
				return err
			}
			cs.died++
			w.numCenters--
		}
	}

	allF1, fsz1, err := w.clusterSlotSizes(c, dirF, true)
	if err != nil {
		return err
	}
	allT1, tsz1, err := w.clusterSlotSizes(c, dirT, true)
	if err != nil {
		return err
	}
	w.sig.addCenter(allF1, fsz1, allT1, tsz1)
	if slices.Equal(allF0, allF1) && slices.Equal(allT0, allT1) {
		return nil
	}
	return w.updateWTablePairs(c, allF0, allT0, allF1, allT1, cs)
}

// updateClusterSlot applies member removals then additions to one
// subcluster slot, deleting its key when it empties.
func (w *snapWriter) updateClusterSlot(c graph.NodeID, s clusterSlot, rem, add []graph.NodeID) error {
	key := clusterKey(c, s.dir, s.l)
	var members []graph.NodeID
	rid, ok, err := w.cluster.Get(key)
	if err != nil {
		return err
	}
	if ok {
		rec, err := w.db.heap.Read(storage.DecodeRID(rid))
		if err != nil {
			return err
		}
		members = decodeNodeList(rec)
	}
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
	w.touchedCl[clKey{c, s.dir, s.l}] = struct{}{}
	if len(members) == 0 {
		if !ok {
			return nil
		}
		nt, _, derr := w.cluster.DeleteCow(w.cow, key)
		if derr != nil {
			return derr
		}
		w.cluster = nt
		return nil
	}
	nrid, err := w.db.heap.Insert(encodeNodeList(members))
	if err != nil {
		return err
	}
	nt, err := w.cluster.InsertCow(w.cow, key, nrid.Encode())
	if err != nil {
		return err
	}
	w.cluster = nt
	return nil
}

// centerIsDead reports whether c's subclusters hold no node but c itself.
func (w *snapWriter) centerIsDead(c graph.NodeID) (bool, error) {
	for _, dir := range []byte{dirF, dirT} {
		ls, err := w.clusterLabels(c, dir)
		if err != nil {
			return false, err
		}
		for _, l := range ls {
			rid, ok, err := w.cluster.Get(clusterKey(c, dir, l))
			if err != nil {
				return false, err
			}
			if !ok {
				continue
			}
			rec, err := w.db.heap.Read(storage.DecodeRID(rid))
			if err != nil {
				return false, err
			}
			for _, m := range decodeNodeList(rec) {
				if m != c {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// dropCenterKeys deletes every cluster-index key of center c (after a
// death check these are exactly its self entries).
func (w *snapWriter) dropCenterKeys(c graph.NodeID) error {
	for _, dir := range []byte{dirF, dirT} {
		ls, err := w.clusterLabels(c, dir)
		if err != nil {
			return err
		}
		for _, l := range ls {
			w.touchedCl[clKey{c, dir, l}] = struct{}{}
			nt, _, err := w.cluster.DeleteCow(w.cow, clusterKey(c, dir, l))
			if err != nil {
				return err
			}
			w.cluster = nt
		}
	}
	return nil
}

// updateWTablePairs moves center c between W rows to match its non-empty
// subcluster labels going from (allF0, allT0) to (allF1, allT1).
func (w *snapWriter) updateWTablePairs(c graph.NodeID, allF0, allT0, allF1, allT1 []graph.Label, cs *centerChangeStats) error {
	before := make(map[wKey]struct{}, len(allF0)*len(allT0))
	for _, x := range allF0 {
		for _, y := range allT0 {
			before[wKey{x, y}] = struct{}{}
		}
	}
	after := make(map[wKey]struct{}, len(allF1)*len(allT1))
	for _, x := range allF1 {
		for _, y := range allT1 {
			after[wKey{x, y}] = struct{}{}
		}
	}
	changed := make([]wKey, 0, len(before)+len(after))
	for k := range before {
		if _, ok := after[k]; !ok {
			changed = append(changed, k)
		}
	}
	for k := range after {
		if _, ok := before[k]; !ok {
			changed = append(changed, k)
		}
	}
	slices.SortFunc(changed, func(a, b wKey) int {
		if a.x != b.x {
			return int(a.x) - int(b.x)
		}
		return int(a.y) - int(b.y)
	})
	for _, k := range changed {
		_, gain := after[k]
		var ws []graph.NodeID
		rid, ok, err := w.wtable.Get(wtableKey(k.x, k.y))
		if err != nil {
			return err
		}
		if ok {
			rec, err := w.db.heap.Read(storage.DecodeRID(rid))
			if err != nil {
				return err
			}
			ws = decodeNodeList(rec)
		}
		n0 := len(ws)
		if gain {
			ws = insertSorted(ws, c)
		} else {
			ws = removeSorted(ws, c)
		}
		if len(ws) == n0 {
			continue
		}
		if len(ws) == 0 {
			if ok {
				nt, _, derr := w.wtable.DeleteCow(w.cow, wtableKey(k.x, k.y))
				if derr != nil {
					return derr
				}
				w.wtable = nt
			}
		} else {
			nrid, err := w.db.heap.Insert(encodeNodeList(ws))
			if err != nil {
				return err
			}
			nt, err := w.wtable.InsertCow(w.cow, wtableKey(k.x, k.y), nrid.Encode())
			if err != nil {
				return err
			}
			w.wtable = nt
		}
		if gain {
			cs.wAdded++
		} else {
			cs.wRemoved++
		}
		w.touchedW[k] = struct{}{}
	}
	return nil
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
