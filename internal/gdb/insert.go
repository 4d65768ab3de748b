package gdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
	"fastmatch/internal/storage"
)

// ErrBadInsert reports an edge insert whose endpoints lie outside the
// graph's node range.
var ErrBadInsert = errors.New("gdb: edge endpoint out of range")

// EdgeInsertStats summarises what one edge insert changed.
type EdgeInsertStats struct {
	// Duplicate is set when the edge already existed; nothing was changed.
	Duplicate bool
	// LabelEntries is the number of 2-hop label entries the cover gained
	// (zero when the edge's endpoints were already connected).
	LabelEntries int
	// NewCenter is set when the edge source became a center, creating a new
	// cluster in the R-join index.
	NewCenter bool
	// NewWPairs counts W-table entries that gained the center — label pairs
	// (X, Y) whose R-join can now produce results through it.
	NewWPairs int
}

// ApplyEdgeInsert adds one edge; it is ApplyEdgeInserts with a
// single-element batch.
func (db *DB) ApplyEdgeInsert(u, v graph.NodeID) (EdgeInsertStats, error) {
	sts, err := db.ApplyEdgeInserts([][2]graph.NodeID{{u, v}})
	if len(sts) == 1 {
		return sts[0], err
	}
	return EdgeInsertStats{}, err
}

// ApplyEdgeInserts adds the edges u→v in order and incrementally repairs
// every persistent structure — no rebuild. Per edge:
//
//  1. The 2-hop cover is updated by center insertion (reach.Incremental),
//     which reports exactly the label entries added.
//  2. Each delta "center u joined stored-Out(x)/In(y)" becomes a point
//     update of x/y's base-table record (T_X in/out codes).
//  3. The same deltas, inverted, extend u's F-/T-subclusters in the
//     cluster index: x with u ∈ out(x) joins F-subcluster (u, F, label(x)),
//     y with u ∈ in(y) joins T-subcluster (u, T, label(y)). If u was not a
//     center before, its self entries are created first (the ∪{w}
//     convention of Section 3.2).
//  4. Subcluster slots that went from empty to non-empty extend the
//     W-table: for each newly non-empty F_X, the center joins W(X, Y) for
//     every label Y with non-empty T_Y, and symmetrically.
//
// The batch is MVCC, not locked against readers: all tree updates go to a
// private next snapshot through page-level copy-on-write (unchanged pages
// are shared with the published version), and the whole batch becomes
// visible in ONE atomic epoch publish at the end. In-flight readers keep
// their pinned epoch; new reads see either no edge of the batch or all of
// them. Pages the batch superseded are recycled once the last epoch
// referencing them retires.
//
// Inserting an existing edge is a no-op reported via Stats.Duplicate. The
// returned slice holds stats for the edges applied, in order; on error it
// covers the successfully applied prefix, which is still published
// (earlier edges of a failed batch stay applied). Updates are
// in-memory-durable only; call Sync to persist them.
func (db *DB) ApplyEdgeInserts(edges [][2]graph.NodeID) ([]EdgeInsertStats, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	cur := db.mgr.Current() // stable: this goroutine is the only publisher
	w := newSnapWriter(db, cur)

	sts := make([]EdgeInsertStats, 0, len(edges))
	var firstErr error
	for _, e := range edges {
		st, err := w.applyOne(e[0], e[1])
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

// snapWriter accumulates one insert batch's private next snapshot: the
// evolving copy-on-write tree versions, the graph successor, and the
// bookkeeping needed to seed the next epoch's caches.
type snapWriter struct {
	db  *DB
	cow *storage.Cow
	g   *graph.Graph

	base    map[graph.Label]*storage.BTree
	wtable  *storage.BTree
	cluster *storage.BTree

	numCenters int
	coverSize  int

	// sig is the batch's private fan-signature table, cloned lazily from
	// the published epoch's before the first cluster mutation; nil means
	// untouched (publish carries the shared table forward).
	sig    *Signature
	curSig *Signature

	touchedNodes map[graph.NodeID]struct{} // stale graph codes
	touchedW     map[wKey]struct{}         // stale W-cache entries
	touchedCl    map[clKey]struct{}        // stale decoded subclusters
	changed      bool
	torn         bool // an edge failed partway through its tree updates
}

func newSnapWriter(db *DB, cur *Snap) *snapWriter {
	base := make(map[graph.Label]*storage.BTree, len(cur.base))
	for l, t := range cur.base {
		base[l] = t
	}
	return &snapWriter{
		db:           db,
		cow:          storage.NewCow(db.pool),
		g:            cur.g,
		base:         base,
		wtable:       cur.wtable,
		cluster:      cur.cluster,
		numCenters:   cur.numCenters,
		coverSize:    cur.coverSize,
		curSig:       cur.sig,
		touchedNodes: make(map[graph.NodeID]struct{}),
		touchedW:     make(map[wKey]struct{}),
		touchedCl:    make(map[clKey]struct{}),
	}
}

// publish seals the heap (so no later batch appends to pages this snapshot
// can see), assembles the next snapshot — warm-starting its caches from
// the survivors of cur's — and installs it as the new epoch, handing the
// superseded pages to the epoch manager for deferred reclamation.
func (w *snapWriter) publish(cur *Snap) {
	db := w.db
	db.heap.Seal()
	sig := w.sig
	if sig == nil {
		sig = cur.sig // no cluster slot changed: share the table
	}
	next := &Snap{
		db:         db,
		g:          w.g,
		base:       w.base,
		wtable:     w.wtable,
		cluster:    w.cluster,
		numCenters: w.numCenters,
		coverSize:  w.coverSize,
		sig:        sig,
		epoch:      db.mgr.CurrentEpoch() + 1,
		codeCache:  cur.codeCache.cloneWithout(w.touchedNodes),
	}
	cur.wmu.RLock()
	next.wcache = make(map[wKey][]graph.NodeID, len(cur.wcache))
	for k, v := range cur.wcache {
		if _, stale := w.touchedW[k]; !stale {
			next.wcache[k] = v
		}
	}
	cur.wmu.RUnlock()
	w.inheritDecoded(cur, next)
	if w.torn {
		// An edge failed inside its tree updates: the trees may disagree
		// with each other, so nothing derived from several of them is kept.
		next.projFrom = make(map[wKey]*NodeSet)
		next.projTo = make(map[wKey]*NodeSet)
	} else {
		touched := w.touchedByLabel()
		w.inheritPartners(cur, next, touched)
		w.inheritProjections(cur, next, touched)
	}
	if db.insertPublishHook != nil {
		db.insertPublishHook()
	}
	db.mgr.Publish(next, w.cow.Freed())
	db.graphDirty = true
	db.bulkBuilt = false
}

// inheritDecoded seeds next's subcluster memo with cur's survivors: every
// decoded subcluster whose slot the batch did not rewrite. The lists are
// immutable, so the two epochs share them; a reader still pinned to cur
// keeps reading cur's own map. cur's lock is held for one map clone — no
// per-row read takes it (those are partner-table slots and dense codes) —
// and the batch's keys are dropped from the private copy.
func (w *snapWriter) inheritDecoded(cur, next *Snap) {
	cur.clmu.RLock()
	next.clcache, next.clNodes = maps.Clone(cur.clcache), cur.clNodes
	cur.clmu.RUnlock()
	for k := range w.touchedCl {
		if nodes, ok := next.clcache[k]; ok {
			delete(next.clcache, k)
			next.clNodes -= len(nodes)
		}
	}
}

// touchedByLabel groups the nodes whose codes the batch changed by label,
// ascending within each.
func (w *snapWriter) touchedByLabel() map[graph.Label][]graph.NodeID {
	touched := make(map[graph.Label][]graph.NodeID)
	for v := range w.touchedNodes {
		l := w.g.LabelOf(v)
		touched[l] = append(touched[l], v)
	}
	for _, vs := range touched {
		slices.Sort(vs)
	}
	return touched
}

// inheritPartners carries into next every partner table of cur the batch
// cannot have changed. A slot holds ∪ T_Y(w) over w ∈ out(v) ∩ W(X, Y)
// (dually F_X, in(v)), so it stands unless the batch changed v's code, the
// W row, or some center's subcluster on the table's target side. The rule is
// per table, not per slot: a table whose W row or target (direction, label)
// the batch touched starts over — empty, refilled slot by slot from the
// inherited subclusters, codes and W rows — and any other table is copied
// minus the slots of the touched nodes of its bound label. next gets its own
// slot arrays, so readers pinned to cur never see the copy. Not called
// after a torn batch: nothing is carried then.
func (w *snapWriter) inheritPartners(cur, next *Snap, touched map[graph.Label][]graph.NodeID) {
	cur.pmu.Lock()
	tabs := maps.Clone(cur.ptabs)
	cur.pmu.Unlock()
	next.ptabs = make(map[partnerKey]*partnerTable, len(tabs))
	targets := make(map[clusterSlot]struct{}, len(w.touchedCl))
	for k := range w.touchedCl {
		targets[clusterSlot{k.dir, k.l}] = struct{}{}
	}
	for k, t := range tabs {
		target := clusterSlot{dirT, k.y}
		if !k.forward {
			target = clusterSlot{dirF, k.x}
		}
		_, staleW := w.touchedW[wKey{k.x, k.y}]
		if _, staleCl := targets[target]; staleW || staleCl {
			continue
		}
		nt := &partnerTable{key: k, bound: t.bound, ws: t.ws, slots: make([]atomic.Pointer[partnerList], len(t.slots))}
		for i := range t.slots {
			nt.slots[i].Store(t.slots[i].Load())
		}
		// Read after the copy: a slot filled meanwhile is at worst charged
		// without having been copied.
		cur.pmu.Lock()
		nt.nodes = t.nodes
		cur.pmu.Unlock()
		for _, v := range touched[t.bound] {
			if l := nt.slots[w.db.rank[v]].Swap(nil); l != nil {
				nt.nodes -= l.cost()
			}
		}
		next.ptabs[k] = nt
		next.pNodes += nt.nodes
	}
}

// inheritProjections seeds next's projection memos with cur's sets,
// patched to next's content. The rule is exact: π_X(X→Y) = {x ∈ ext(X) :
// out(x) ∩ W(X, Y) ≠ ∅} (in(y) for π_Y), so a node's membership can only
// have changed if the batch changed its code (touchedNodes) or changed the
// W row (touchedW) — and then only for members of the centers that entered
// or left the row. Those candidates are re-tested against next; a set none
// of them moved is shared between the epochs, one that changed is copied.
// A set that cannot be patched is left out, and Snap.projection recomputes
// it on first use. Not called after a torn batch.
func (w *snapWriter) inheritProjections(cur, next *Snap, touched map[graph.Label][]graph.NodeID) {
	cur.statMu.Lock()
	next.projFrom, next.projTo = maps.Clone(cur.projFrom), maps.Clone(cur.projTo)
	cur.statMu.Unlock()
	patchAll := func(memo map[wKey]*NodeSet, forward bool) {
		for k, set := range memo {
			patched, changed, err := w.patchProjection(cur, next, k, set, forward, touched)
			if err != nil {
				delete(memo, k)
				continue
			}
			memo[k] = patched
			w.db.projInherited.Add(1)
			if changed {
				w.db.projPatched.Add(1)
			}
		}
	}
	patchAll(next.projFrom, true)
	patchAll(next.projTo, false)
}

// patchProjection returns next's version of one projection set of cur: set
// itself when no candidate's membership moved, else a patched copy.
// forward selects π_X (F-side members, out-codes) over π_Y (T-side, in-).
func (w *snapWriter) patchProjection(cur, next *Snap, k wKey, set *NodeSet, forward bool, touched map[graph.Label][]graph.NodeID) (_ *NodeSet, changed bool, _ error) {
	side, dir, code := k.x, dirF, next.OutCode
	if !forward {
		side, dir, code = k.y, dirT, next.InCode
	}
	ws, err := next.Centers(k.x, k.y)
	if err != nil {
		return nil, false, err
	}
	cands := touched[side]
	if _, ok := w.touchedW[k]; ok {
		cands = slices.Clone(cands)
		ws0, err := cur.Centers(k.x, k.y)
		if err != nil {
			return nil, false, err
		}
		// A center that left the row takes its old members' support with
		// it; one that entered brings its new members. Members that differ
		// between the two epochs' subclusters are touched nodes already.
		membersOfMoved := func(s *Snap, row, other []graph.NodeID) error {
			j := 0
			for _, c := range row {
				for j < len(other) && other[j] < c {
					j++
				}
				if j < len(other) && other[j] == c {
					continue // c is in both rows
				}
				members, err := s.clusterLookup(c, dir, side)
				if err != nil {
					return err
				}
				cands = append(cands, members...)
			}
			return nil
		}
		if err := membersOfMoved(cur, ws0, ws); err != nil {
			return nil, false, err
		}
		if err := membersOfMoved(next, ws, ws0); err != nil {
			return nil, false, err
		}
		slices.Sort(cands)
		cands = slices.Compact(cands)
	}
	var out *NodeSet
	for _, v := range cands {
		c, err := code(v)
		if err != nil {
			return nil, false, err
		}
		in := IntersectNonEmpty(c, ws)
		if in == set.Has(v) {
			continue
		}
		if out == nil {
			out = set.clone()
		}
		if in {
			out.add(v)
		} else {
			out.remove(v)
		}
	}
	if out == nil {
		return set, false, nil
	}
	return out, true, nil
}

func (w *snapWriter) applyOne(u, v graph.NodeID) (EdgeInsertStats, error) {
	var st EdgeInsertStats
	n := graph.NodeID(w.g.NumNodes())
	if u < 0 || v < 0 || u >= n || v >= n {
		return st, fmt.Errorf("%w: edge %d->%d, graph has %d nodes", ErrBadInsert, u, v, n)
	}
	if slices.Contains(w.g.Successors(u), v) {
		st.Duplicate = true
		return st, nil
	}
	if err := w.ensureIncremental(); err != nil {
		return st, err
	}

	deltas := w.db.inc.InsertEdge(u, v)
	w.g = w.g.WithEdge(u, v)
	w.changed = true
	st.LabelEntries = len(deltas)
	if len(deltas) == 0 {
		return st, nil // u already reached v: the cover was complete
	}

	cs, err := w.applyDeltas(deltas)
	if err != nil {
		return st, err
	}
	st.NewCenter = cs.born > 0
	st.NewWPairs = cs.wAdded
	w.coverSize += len(deltas)
	return st, nil
}

// ensureIncremental lazily seeds the updatable reachability labeling: from
// the build-time index when present, otherwise (a database reattached with
// Open) by scanning the stored compact codes back out of the base tables.
// The seed state persists on the DB across batches; it is only read and
// mutated under writeMu.
func (w *snapWriter) ensureIncremental() error {
	db := w.db
	if db.inc != nil {
		return nil
	}
	if db.idx != nil {
		db.inc = reach.NewIncremental(db.idx)
		return nil
	}
	n := w.g.NumNodes()
	in := make([][]graph.NodeID, n)
	out := make([][]graph.NodeID, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		rid, ok, err := w.base[w.g.LabelOf(v)].Get(nodeKey(v))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("gdb: node %d missing from base table", v)
		}
		rec, err := db.heap.Read(storage.DecodeRID(rid))
		if err != nil {
			return err
		}
		in[v], out[v] = decodeCodes(rec)
	}
	db.inc = reach.NewIncrementalFromLabels(w.g, in, out)
	return nil
}

// applyDeltas applies one edge's label deltas to the base tables, the
// cluster index and the W-table.
func (w *snapWriter) applyDeltas(deltas []reach.LabelDelta) (centerChangeStats, error) {
	// Marked before the trees change: a batch that fails midway still
	// publishes its applied prefix, and no cache may outlive that.
	for _, d := range deltas {
		w.touchedNodes[d.Node] = struct{}{}
	}
	err := w.applyBaseDeltas(deltas)
	var cs centerChangeStats
	if err == nil {
		cs, err = w.applyCenterDeltas(deltas)
	}
	w.torn = w.torn || err != nil
	return cs, err
}

// applyBaseDeltas rewrites the base-table record of every node whose
// stored code gained or lost a center: read-modify-write through the heap
// (the old record is orphaned; the heap is append-only) and a
// copy-on-write upsert of the primary index entry. A record whose codes
// empty is kept — the node still exists and its row anchors reattachment.
func (w *snapWriter) applyBaseDeltas(deltas []reach.LabelDelta) error {
	byNode := make(map[graph.NodeID][]reach.LabelDelta)
	order := make([]graph.NodeID, 0, len(deltas))
	for _, d := range deltas {
		if _, ok := byNode[d.Node]; !ok {
			order = append(order, d.Node)
		}
		byNode[d.Node] = append(byNode[d.Node], d)
	}
	slices.Sort(order)
	for _, x := range order {
		l := w.g.LabelOf(x)
		tree := w.base[l]
		rid, ok, err := tree.Get(nodeKey(x))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("gdb: node %d missing from base table", x)
		}
		rec, err := w.db.heap.Read(storage.DecodeRID(rid))
		if err != nil {
			return err
		}
		in, out := decodeCodes(rec)
		for _, d := range byNode[x] {
			switch {
			case d.Removed && d.Out:
				out = removeSorted(out, d.Center)
			case d.Removed:
				in = removeSorted(in, d.Center)
			case d.Out:
				out = insertSorted(out, d.Center)
			default:
				in = insertSorted(in, d.Center)
			}
		}
		nrid, err := w.db.heap.Insert(encodeCodes(in, out))
		if err != nil {
			return err
		}
		nt, err := tree.InsertCow(w.cow, nodeKey(x), nrid.Encode())
		if err != nil {
			return err
		}
		w.base[l] = nt
	}
	return nil
}

// clusterLabels returns the labels of center c's non-empty dir-side
// subclusters, ascending, by scanning the writer's private cluster version
// over c's key range.
func (w *snapWriter) clusterLabels(c graph.NodeID, dir byte) ([]graph.Label, error) {
	ls, _, err := w.clusterSlotSizes(c, dir, false)
	return ls, err
}

// clusterSlotSizes is clusterLabels plus, when sizes is set, the member
// count of each slot (read from the node-list record's length prefix) —
// the per-center contribution the fan signature retracts and re-adds
// around a cluster mutation.
func (w *snapWriter) clusterSlotSizes(c graph.NodeID, dir byte, sizes bool) ([]graph.Label, []int, error) {
	var ls []graph.Label
	var rids []uint64
	start := clusterKey(c, dir, 0)
	err := w.cluster.Scan(start, func(key []byte, val uint64) bool {
		if len(key) != 9 {
			return false
		}
		kw := graph.NodeID(binary.BigEndian.Uint32(key[0:4]))
		if kw != c || key[4] != dir {
			return false
		}
		ls = append(ls, graph.Label(binary.BigEndian.Uint32(key[5:9])))
		rids = append(rids, val)
		return true
	})
	if err != nil || !sizes {
		return ls, nil, err
	}
	ns := make([]int, len(rids))
	for i, rid := range rids {
		rec, err := w.db.heap.Read(storage.DecodeRID(rid))
		if err != nil {
			return nil, nil, err
		}
		ns[i] = int(binary.LittleEndian.Uint32(rec))
	}
	return ls, ns, nil
}

// ensureSig clones the published epoch's fan-signature table into the
// writer before its first mutation.
func (w *snapWriter) ensureSig() {
	if w.sig == nil {
		w.sig = w.curSig.clone()
	}
}
