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
//  2. Every node x/y a delta "center u joined stored-Out(x)/In(y)" names
//     gets its base-table record (T_X in/out codes) rewritten from its
//     codes in the incremental labeling.
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
// (earlier edges of a failed batch stay applied). An error writing the
// batch's W rows, which happens once after its last edge, is returned
// with the stats of every edge. Updates are in-memory-durable only; call
// Sync to persist them.
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
	if err := w.finish(); err != nil && firstErr == nil {
		firstErr = err
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

	// wrows holds the batch's own copy of every W row it looked at.
	// finish writes each changed row once, after the batch's last edge;
	// nothing reads the W-tree before.
	wrows map[wKey]*wRow
	// curRows holds the W row of every partner table of cur, gathered
	// once per batch: a table holds its row as of cur.
	curRows map[wKey][]graph.NodeID
	recBuf  []byte // wRowOf reads records here, and finish encodes them

	touchedW map[wKey]struct{}       // W rows the batch changed
	rows     map[wKey][]graph.NodeID // next's other rows publish has read
	changed  bool
	torn     bool // an edge failed partway through its tree updates
}

// wRow is one W row a batch touched: ws is the batch's copy, patched in
// place, and flips lists the centers each change moved into or out of it.
// rid is the record the row's key held before the batch (had: it held one).
type wRow struct {
	ws, flips []graph.NodeID
	rid       uint64
	had       bool
}

// moved returns the centers that entered or left the row: those flipped
// an odd number of times.
func (r *wRow) moved() []graph.NodeID {
	fs := slices.Clone(r.flips)
	slices.Sort(fs)
	out := fs[:0]
	for i := 0; i < len(fs); {
		j := i + 1
		for j < len(fs) && fs[j] == fs[i] {
			j++
		}
		if (j-i)%2 == 1 {
			out = append(out, fs[i])
		}
		i = j
	}
	return out
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
		curSig:     cur.sig,
		pending:    make(map[[2]graph.NodeID]int),
		codes:      make(map[graph.NodeID]codes),
		clusters:   make(map[graph.NodeID]map[uint32][]graph.NodeID),
		wrows:      make(map[wKey]*wRow),
		touchedW:   make(map[wKey]struct{}),
		rows:       make(map[wKey][]graph.NodeID),
	}
}

// finish ends the batch: it writes the W rows the batch changed and, if
// any edge applied, publishes. A row that cannot be written tears the
// batch (publish then carries no structure derived from several trees).
func (w *snapWriter) finish() error {
	err := w.writeWRows()
	w.torn = w.torn || err != nil
	if w.changed {
		w.publish(w.cur)
	}
	return err
}

// gatherCurRows fills curRows, once per batch.
func (w *snapWriter) gatherCurRows() {
	if w.curRows != nil {
		return
	}
	w.curRows = make(map[wKey][]graph.NodeID)
	w.cur.pmu.Lock()
	for pk, t := range w.cur.ptabs {
		w.curRows[wKey{pk.x, pk.y}] = t.ws
	}
	w.cur.pmu.Unlock()
}

// wRowOf returns the batch's copy of W(k.x, k.y), made on first touch:
// cloned from one of cur's partner tables when one holds the row, else
// read from the W-table and the heap.
func (w *snapWriter) wRowOf(k wKey) (*wRow, error) {
	if r, ok := w.wrows[k]; ok {
		return r, nil
	}
	v, had, err := w.wtable.Get(wtableKey(k.x, k.y))
	if err != nil {
		return nil, err
	}
	r := &wRow{rid: v, had: had}
	w.gatherCurRows()
	if ws, ok := w.curRows[k]; ok {
		r.ws = append(make([]graph.NodeID, 0, len(ws)+wRowRoom), ws...)
	} else if had {
		if w.recBuf, err = w.db.heap.ReadTo(w.recBuf, storage.DecodeRID(v)); err != nil {
			return nil, err
		}
		r.ws = decodeNodeListRoom(w.recBuf, wRowRoom)
	}
	w.wrows[k] = r
	return r, nil
}

// wRowRoom is the room a batch's copy of a W row leaves for centers to
// join it without a reallocation.
const wRowRoom = 4

// writeWRows writes each W row the batch changed once, in key order: a
// new heap record under an upsert of its key, or the key's deletion when
// the row emptied. The record the row replaces is superseded.
func (w *snapWriter) writeWRows() error {
	keys := make([]wKey, 0, len(w.touchedW))
	for k := range w.touchedW {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareWKeys)
	for _, k := range keys {
		r := w.wrows[k]
		key := wtableKey(k.x, k.y)
		if len(r.ws) == 0 {
			if r.had {
				nt, _, err := w.wtable.DeleteCow(w.cow, key)
				if err != nil {
					return err
				}
				w.wtable = nt
			}
		} else {
			w.recBuf = appendNodeList(w.recBuf[:0], r.ws)
			nrid, err := w.db.heap.Insert(w.recBuf)
			if err != nil {
				return err
			}
			nt, err := w.wtable.InsertCow(w.cow, key, nrid.Encode())
			if err != nil {
				return err
			}
			w.wtable = nt
		}
		if err := w.supersede(r.rid, r.had); err != nil {
			return err
		}
	}
	return nil
}

// supersede marks the heap record at the encoded RID v dead, when had:
// the batch has just replaced or deleted the tree entry holding v.
func (w *snapWriter) supersede(v uint64, had bool) error {
	if !had {
		return nil
	}
	return w.cow.Supersede(w.db.heap, storage.DecodeRID(v))
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
		coverSize:  db.inc.Size(),
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
		w.gatherCurRows()
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
	db.mgr.PublishSpans(next, db.superseded(next.epoch, w.cow))
	db.graphDirty = true
	db.bulkBuilt = false
}

// row returns next's W(X, Y) row, decoded at most once per batch: the
// projections of both sides and the partner tables of both directions ask
// for it. A row the batch touched is its own copy, and a row it left alone
// the one a partner table of cur holds, if any.
func (w *snapWriter) row(next *Snap, k wKey) ([]graph.NodeID, error) {
	if r, ok := w.wrows[k]; ok {
		return r.ws[:len(r.ws):len(r.ws)], nil
	}
	if ws, ok := w.curRows[k]; ok {
		return ws, nil
	}
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
			w.rows[k] = t.ws // a table a reader added since the batch began
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
		// A center that left the row takes its old members' support with
		// it; one that entered brings its new members. Members that differ
		// between the two epochs' subclusters are touched nodes already.
		for _, c := range w.wrows[k].moved() {
			s := cur
			if _, in := slices.BinarySearch(ws, c); in {
				s = next
			}
			cands = append(cands, s.subcluster(c, dir, side)...)
		}
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
	w.ensureIncremental()
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
	return st, nil
}

// ensureIncremental lazily seeds the updatable reachability labeling from
// the stored compact codes, which the published epoch holds decoded
// (Snap.storedCodes); the labeling adopts the lists. The seed state
// persists on the DB across batches; it is only read and mutated under
// writeMu. It runs before the batch's first edge is applied, so the
// published graph it seeds from is the batch's graph so far.
func (w *snapWriter) ensureIncremental() {
	if w.db.inc == nil {
		in, out := w.cur.storedCodes()
		w.db.inc = reach.NewIncrementalFromLabels(w.g, in, out)
	}
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
// stored code gained or lost a center, from the node's codes in the
// incremental labeling: a new heap record (the old one is superseded) and a
// copy-on-write upsert of the primary index entry. A record whose codes
// empty is kept — the node still exists and its row anchors reattachment.
// The batch records copies of the codes it wrote: the labeling edits its
// lists in place, and a later edge of a batch that then tears would change
// them without rewriting the record.
func (w *snapWriter) applyBaseDeltas(deltas []reach.LabelDelta) error {
	nodes := make([]graph.NodeID, 0, len(deltas))
	for _, d := range deltas {
		nodes = append(nodes, d.Node)
	}
	slices.Sort(nodes)
	for _, x := range slices.Compact(nodes) {
		rid, err := w.db.codeRID(w.base, w.g, x)
		if err != nil {
			return err
		}
		in, out := slices.Clone(w.db.inc.In(x)), slices.Clone(w.db.inc.Out(x))
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
		if err := w.supersede(rid.Encode(), true); err != nil {
			return err
		}
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
