package gdb

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"time"

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
// evolving copy-on-write tree versions, the edges the graph successor gains
// and loses, and the bookkeeping needed to seed the next epoch's caches.
type snapWriter struct {
	db  *DB
	cur *Snap // the published epoch the batch starts from
	cow *storage.Cow
	g   *graph.Graph // the published graph; publish builds its successor once

	// added/removed are the batch's edges in order, and pending counts, per
	// edge, the copies the batch added minus those it removed.
	added, removed [][2]graph.NodeID
	pending        map[[2]graph.NodeID]int

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

	// codes and clusters are what the batch wrote to next's trees: the
	// stored codes of every node whose base-table record it rewrote, and
	// per center the members of every subcluster it rewrote, by slotKey
	// (nil once emptied). Each is recorded once its tree update has
	// succeeded.
	codes    map[graph.NodeID]codes
	clusters map[graph.NodeID]map[uint32][]graph.NodeID

	touchedW map[wKey]struct{}       // W rows the batch changed
	rows     map[wKey][]graph.NodeID // next's W rows publish has read
	changed  bool
	torn     bool // an edge failed partway through its tree updates
}

// clKey names one subcluster: center w's, by slotKey.
type clKey struct {
	w   graph.NodeID
	key uint32
}

func newSnapWriter(db *DB, cur *Snap) *snapWriter {
	base := make(map[graph.Label]*storage.BTree, len(cur.base))
	for l, t := range cur.base {
		base[l] = t
	}
	return &snapWriter{
		db:         db,
		cur:        cur,
		cow:        storage.NewCow(db.pool),
		g:          cur.g,
		base:       base,
		wtable:     cur.wtable,
		cluster:    cur.cluster,
		numCenters: cur.numCenters,
		coverSize:  cur.coverSize,
		curSig:     cur.sig,
		pending:    make(map[[2]graph.NodeID]int),
		codes:      make(map[graph.NodeID]codes),
		clusters:   make(map[graph.NodeID]map[uint32][]graph.NodeID),
		touchedW:   make(map[wKey]struct{}),
		rows:       make(map[wKey][]graph.NodeID),
	}
}

// publish seals the heap (so no later batch appends to pages this snapshot
// can see), assembles the next snapshot — its graph built once from the
// batch's edges, its caches carried from cur's (see slotArray) — and
// installs it as the new epoch, handing the superseded pages to the epoch
// manager for deferred reclamation.
func (w *snapWriter) publish(cur *Snap) {
	db := w.db
	db.heap.Seal()
	sig := w.sig
	if sig == nil {
		sig = cur.sig // no cluster slot changed: share the table
	}
	g := w.g
	if len(w.removed) > 0 {
		g = g.WithoutEdges(w.removed)
	}
	if len(w.added) > 0 {
		g = g.WithEdges(w.added)
	}
	next := &Snap{
		db:         db,
		g:          g,
		base:       w.base,
		wtable:     w.wtable,
		cluster:    w.cluster,
		numCenters: w.numCenters,
		coverSize:  w.coverSize,
		sig:        sig,
		epoch:      db.mgr.CurrentEpoch() + 1,
	}
	start := time.Now()
	copied := w.inheritDecoded(cur, next)
	if w.torn {
		// An edge failed inside its tree updates: the trees may disagree
		// with each other, so nothing derived from several of them is kept.
		next.projFrom = make(map[wKey]*RankSet)
		next.projTo = make(map[wKey]*RankSet)
	} else {
		touched := w.touchedByLabel()
		// Projections first: a filtered partner table is carried only
		// with the very sets it was filtered by.
		w.inheritProjections(cur, next, touched)
		copied += w.inheritPartners(cur, next, touched)
	}
	db.publishCopied.Add(int64(copied))
	db.publishInheritUS[bits.Len64(uint64(time.Since(start).Microseconds()))].Add(1)
	if db.insertPublishHook != nil {
		db.insertPublishHook()
	}
	db.mgr.Publish(next, w.cow.Freed())
	db.graphDirty = true
	db.bulkBuilt = false
}

// row returns next's W(X, Y) row, read once per publish: the projections
// of both sides and the partner tables of both directions ask for it. A
// row the batch left alone is the one a carried partner table of cur
// already holds (inheritPartners records those first).
func (w *snapWriter) row(next *Snap, k wKey) ([]graph.NodeID, error) {
	if ws, ok := w.rows[k]; ok {
		return ws, nil
	}
	ws, err := next.Centers(k.x, k.y)
	if err != nil {
		return nil, err
	}
	w.rows[k] = ws
	return ws, nil
}

// rowMoved reports whether the batch changed W(k.x, k.y).
func (w *snapWriter) rowMoved(k wKey) bool {
	_, ok := w.touchedW[k]
	return ok
}

// has reports whether the batch's graph so far holds an edge u→v: the
// published graph's copies plus the batch's pending count (edges are a
// multiset).
func (w *snapWriter) has(u, v graph.NodeID) bool {
	n := w.pending[[2]graph.NodeID{u, v}]
	for _, x := range w.g.Successors(u) {
		if x == v {
			n++
		}
	}
	return n > 0
}

// touchedByLabel groups the nodes whose codes the batch changed by label,
// ascending within each.
func (w *snapWriter) touchedByLabel() map[graph.Label][]graph.NodeID {
	touched := make(map[graph.Label][]graph.NodeID)
	for v := range w.codes {
		l := w.g.LabelOf(v)
		touched[l] = append(touched[l], v)
	}
	for _, vs := range touched {
		slices.Sort(vs)
	}
	return touched
}

// inheritPartners carries every partner table of cur into next, with
// next's W row, minus the slots the batch can have changed. A forward slot
// of v holds ∪ T_Y(w) over w ∈ out(v) ∩ W(X, Y). For a v whose code the
// batch left alone that moves only through a center w ∈ out(v) whose
// T_Y(w) the batch rewrote (a clusters key on the table's target side):
// the list itself changed, or w entered or left the row. The latter is a
// rewrite too: v ∈ F_X(w) keeps F_X(w) non-empty, so w moves only when
// T_Y(w) empties or fills. A changed W row therefore needs no test of its
// own. w ∈ out(v) holds exactly when v ∈ F_X(w) in an epoch where w is a
// center; w may be born or die in the batch (its self entry then exists in
// one epoch only), so the owners are read in cur and in next. A carried
// table thus clears the slots of its bound label's touched nodes and of the
// F_X(w) members of every such w (dually the T_Y(w) members for a reverse
// table, whose target side is F_X); every other slot is next's list as
// shared or copied. A table whose W row cannot be read is left
// out and refills from empty. next gets its own chunk directories, and each
// table is charged for what its chunks hold. Not called after a torn
// batch: nothing is carried then. It returns the bytes copied.
func (w *snapWriter) inheritPartners(cur, next *Snap, touched map[graph.Label][]graph.NodeID) int {
	cur.pmu.Lock()
	tabs := maps.Clone(cur.ptabs)
	cur.pmu.Unlock()
	for _, t := range tabs {
		if k := (wKey{t.key.x, t.key.y}); !w.rowMoved(k) {
			w.rows[k] = t.ws
		}
	}
	next.ptabs = make(map[partnerKey]*partnerTable, len(tabs))
	moved := make(map[uint32][]graph.NodeID) // slotKey → centers
	for c, m := range w.clusters {
		for key := range m {
			moved[key] = append(moved[key], c)
		}
	}
	owners := make(map[clKey][]graph.NodeID) // shared by the tables of one bound side
	ownersOf := func(k clKey) []graph.NodeID {
		if o, ok := owners[k]; ok {
			return o
		}
		i := int(k.w & chunkMask)
		o := next.clusters[k.w>>chunkBits].get(i, k.key)
		if _, rewritten := w.clusters[k.w][k.key]; rewritten { // else cur holds the same list
			o0 := cur.clusters[k.w>>chunkBits].get(i, k.key)
			o = mergeUnionNodes(make([]graph.NodeID, 0, len(o0)+len(o)), o0, o)
		}
		owners[k] = o
		return o
	}
	var kept, dropped int64
	copied := 0
	// A filtered table follows its base: partner tables first, then each
	// chain one group deeper (a longer key).
	keys := make([]partnerKey, 0, len(tabs))
	for k := range tabs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b partnerKey) int { return len(a.groups) - len(b.groups) })
	carried := make(map[*partnerTable]*partnerTable, len(tabs))
	for _, k := range keys {
		t := tabs[k]
		nt, n, c, err := w.carryPartners(next, t, touched[t.bound], moved, ownersOf)
		if err == nil && t.base != nil {
			nt.base = carried[t.base]
			if nt.base == nil || !sameProjections(next, t) {
				err = errFilterMoved
			}
		}
		if err != nil {
			filled, _ := t.slots.held()
			dropped += filled
			continue
		}
		next.ptabs[k], carried[t] = nt, nt
		filled, _ := nt.slots.held()
		next.pNodes += int(nt.charge())
		kept, dropped, copied = kept+filled, dropped+int64(n), copied+c
	}
	w.db.partnerSlotsKept.Add(kept)
	w.db.partnerSlotsDropped.Add(dropped)
	return copied
}

// errFilterMoved drops a filtered table whose base was not carried or one
// of whose projections the batch changed: its slots would be stale.
var errFilterMoved = errors.New("gdb: filtered table's base or projections moved")

// sameProjections reports whether next holds, unchanged, every projection
// filtered table t reads: inheritProjections carried the very set.
func sameProjections(next *Snap, t *partnerTable) bool {
	memo := next.projTo
	if t.out {
		memo = next.projFrom
	}
	for i, k := range t.projKeys {
		if memo[k] != t.projs[i] {
			return false
		}
	}
	return true
}

// carryPartners carries one table of cur into next, as inheritPartners
// describes — its bitmaps by the same rule as its lists — and returns it
// with the number of filled list slots it cleared and the bytes it copied.
func (w *snapWriter) carryPartners(next *Snap, t *partnerTable, touched []graph.NodeID, moved map[uint32][]graph.NodeID, ownersOf func(clKey) []graph.NodeID) (_ *partnerTable, dropped, copied int, _ error) {
	k := t.key
	ws, err := w.row(next, wKey{k.x, k.y})
	if err != nil {
		return nil, 0, 0, err
	}
	target, bound := slotKey(dirT, k.y), slotKey(dirF, k.x)
	if !k.forward {
		target, bound = slotKey(dirF, k.x), slotKey(dirT, k.y)
	}
	ranks := make([]int, 0, len(touched))
	for _, v := range touched {
		ranks = append(ranks, int(w.db.rank[v]))
	}
	for _, c := range moved[target] {
		for _, v := range ownersOf(clKey{c, bound}) {
			ranks = append(ranks, int(w.db.rank[v]))
		}
	}
	slices.Sort(ranks)
	nt := *t
	nt.ws = ws
	nt.slots, copied, dropped = t.slots.successor(ranks, t.cost)
	var setsCopied int
	nt.sets, setsCopied, _ = t.sets.successor(ranks, (*RankSet).cost)
	return &nt, dropped, copied + setsCopied, nil
}

// inheritProjections seeds next's projection memos with cur's sets,
// patched to next's content. The rule is exact: π_X(X→Y) = {x ∈ ext(X) :
// out(x) ∩ W(X, Y) ≠ ∅} (in(y) for π_Y), so a node's membership can only
// have changed if the batch changed its code (codes) or changed the
// W row (touchedW) — and then only for members of the centers that entered
// or left the row. Those candidates are re-tested against next; a set none
// of them moved is shared between the epochs, one that changed is copied.
// A set that cannot be patched is left out, and Snap.projection recomputes
// it on first use. Not called after a torn batch.
func (w *snapWriter) inheritProjections(cur, next *Snap, touched map[graph.Label][]graph.NodeID) {
	cur.statMu.Lock()
	next.projFrom, next.projTo = maps.Clone(cur.projFrom), maps.Clone(cur.projTo)
	cur.statMu.Unlock()
	patchAll := func(memo map[wKey]*RankSet, forward bool) {
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
func (w *snapWriter) patchProjection(cur, next *Snap, k wKey, set *RankSet, forward bool, touched map[graph.Label][]graph.NodeID) (_ *RankSet, changed bool, _ error) {
	side, dir := k.x, dirF
	if !forward {
		side, dir = k.y, dirT
	}
	cands := touched[side]
	if len(cands) == 0 && !w.rowMoved(k) {
		return set, false, nil
	}
	ws, err := w.row(next, k)
	if err != nil {
		return nil, false, err
	}
	if w.rowMoved(k) {
		cands = slices.Clone(cands)
		ws0, err := cur.Centers(k.x, k.y)
		if err != nil {
			return nil, false, err
		}
		// A center that left the row takes its old members' support with
		// it; one that entered brings its new members. Members that differ
		// between the two epochs' subclusters are touched nodes already.
		membersOfMoved := func(s *Snap, row, other []graph.NodeID) {
			j := 0
			for _, c := range row {
				for j < len(other) && other[j] < c {
					j++
				}
				if j < len(other) && other[j] == c {
					continue // c is in both rows
				}
				cands = append(cands, s.subcluster(c, dir, side)...)
			}
		}
		membersOfMoved(cur, ws0, ws)
		membersOfMoved(next, ws, ws0)
		slices.Sort(cands)
		cands = slices.Compact(cands)
	}
	var out *RankSet
	r := next.Ranks()
	for _, v := range cands {
		in, oc := next.codesOf(v)
		if forward {
			in = oc
		}
		member := IntersectNonEmpty(in, ws)
		if member == set.Has(r, v) {
			continue
		}
		if out == nil {
			out = set.clone()
		}
		if member {
			out.add(r, v)
		} else {
			out.remove(r, v)
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
	if w.has(u, v) {
		st.Duplicate = true
		return st, nil
	}
	if err := w.ensureIncremental(); err != nil {
		return st, err
	}

	deltas := w.db.inc.InsertEdge(u, v)
	w.added = append(w.added, [2]graph.NodeID{u, v})
	w.pending[[2]graph.NodeID{u, v}]++
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
// Open) from the stored compact codes, which the published epoch holds
// decoded (Snap.storedCodes). The seed state persists on the DB across
// batches; it is only read and mutated under writeMu. It runs before the
// batch's first edge is applied, so the published graph it seeds from is
// the batch's graph so far.
func (w *snapWriter) ensureIncremental() error {
	db := w.db
	if db.inc != nil {
		return nil
	}
	if db.idx != nil {
		db.inc = reach.NewIncremental(db.idx)
		return nil
	}
	in, out := w.cur.storedCodes()
	db.inc = reach.NewIncrementalFromLabels(w.g, in, out)
	return nil
}

// applyDeltas applies one edge's label deltas to the base tables, the
// cluster index and the W-table.
func (w *snapWriter) applyDeltas(deltas []reach.LabelDelta) (centerChangeStats, error) {
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
		rec, err := w.db.codeRecord(w.base, w.g, x)
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
		l := w.g.LabelOf(x)
		nt, err := w.base[l].InsertCow(w.cow, nodeKey(x), nrid.Encode())
		if err != nil {
			return err
		}
		w.base[l] = nt
		w.codes[x] = codes{in, out}
	}
	return nil
}

// subcluster returns center c's key subcluster as the batch has left it so
// far: the one it wrote, else cur's. The trees hold the same, so the writer
// reads no cluster-index page.
func (w *snapWriter) subcluster(c graph.NodeID, key uint32) []graph.NodeID {
	if nodes, ok := w.clusters[c][key]; ok {
		return nodes
	}
	return w.cur.clusters[c>>chunkBits].get(int(c&chunkMask), key)
}

// subclusters returns center c's non-empty subclusters as the batch has
// left them so far, by ascending key.
func (w *snapWriter) subclusters(c graph.NodeID) (keys []uint32, lists [][]graph.NodeID) {
	old, i := w.cur.clusters[c>>chunkBits], int(c&chunkMask)
	all := slices.Clone(old.keys[old.first[i]:old.first[i+1]])
	for key := range w.clusters[c] {
		all = append(all, key)
	}
	slices.Sort(all)
	for _, key := range slices.Compact(all) {
		if nodes := w.subcluster(c, key); len(nodes) > 0 {
			keys, lists = append(keys, key), append(lists, nodes)
		}
	}
	return keys, lists
}

// setSubcluster records the members the batch wrote for center c's key
// subcluster, nil once it emptied.
func (w *snapWriter) setSubcluster(c graph.NodeID, key uint32, nodes []graph.NodeID) {
	if w.clusters[c] == nil {
		w.clusters[c] = make(map[uint32][]graph.NodeID)
	}
	w.clusters[c][key] = nodes
}

// slotSizes returns the labels and sizes of center c's non-empty dir-side
// subclusters as the batch has left them so far, ascending by label: the
// contribution the fan signature retracts and re-adds around a cluster
// mutation.
func (w *snapWriter) slotSizes(c graph.NodeID, dir byte) (ls []graph.Label, sz []int) {
	keys, lists := w.subclusters(c)
	for j, key := range keys {
		if d, l := splitKey(key); d == dir {
			ls, sz = append(ls, l), append(sz, len(lists[j]))
		}
	}
	return ls, sz
}

// ensureSig clones the published epoch's fan-signature table into the
// writer before its first mutation.
func (w *snapWriter) ensureSig() {
	if w.sig == nil {
		w.sig = w.curSig.clone()
	}
}
