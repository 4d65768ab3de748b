package gdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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

	touchedNodes map[graph.NodeID]struct{} // stale code-cache entries
	touchedW     map[wKey]struct{}         // stale W-cache entries
	touchedCl    map[clKey]struct{}        // stale decoded subclusters
	changed      bool
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
		joinSizes:  make(map[wKey]int64),
		distFrom:   make(map[wKey]int64),
		distTo:     make(map[wKey]int64),
		projFrom:   make(map[wKey][]graph.NodeID),
		projTo:     make(map[wKey][]graph.NodeID),
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
	if db.insertPublishHook != nil {
		db.insertPublishHook()
	}
	db.mgr.Publish(next, w.cow.Freed())
	db.graphDirty = true
	db.bulkBuilt = false
}

// inheritDecoded seeds next's decoded memos with cur's survivors: every
// decoded subcluster whose slot the batch did not rewrite, and every
// center set out(v) ∩ W(X, Y) (or in(v) ∩ W) whose code and W row both
// stand. The lists are immutable, so the two epochs share them; a reader
// still pinned to cur keeps reading cur's own maps.
func (w *snapWriter) inheritDecoded(cur, next *Snap) {
	cur.clmu.RLock()
	defer cur.clmu.RUnlock()
	if len(cur.clcache) > 0 {
		next.clcache = make(map[clKey][]graph.NodeID, len(cur.clcache))
		for k, nodes := range cur.clcache {
			if _, stale := w.touchedCl[k]; !stale {
				next.clcache[k] = nodes
				next.clNodes += len(nodes)
			}
		}
	}
	if len(cur.ccache) > 0 {
		next.ccache = make(map[ccKey][]graph.NodeID, len(cur.ccache))
		for k, cs := range cur.ccache {
			_, staleCode := w.touchedNodes[k.v]
			_, staleW := w.touchedW[wKey{k.x, k.y}]
			if !staleCode && !staleW {
				next.ccache[k] = cs
				next.ccNodes += len(cs) + 1
			}
		}
	}
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

	// Marked before the trees change: a batch that fails midway still
	// publishes its applied prefix, and no cache may outlive that.
	for _, d := range deltas {
		w.touchedNodes[d.Node] = struct{}{}
	}
	if err := w.applyBaseDeltas(deltas); err != nil {
		return st, err
	}
	cs, err := w.applyCenterDeltas(deltas)
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
	n := w.g.NumNodes()
	in := make([][]graph.NodeID, n)
	out := make([][]graph.NodeID, n)
	if db.idx != nil {
		for v := graph.NodeID(0); int(v) < n; v++ {
			in[v] = db.idx.In(v)
			out[v] = db.idx.Out(v)
		}
	} else {
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
	}
	db.inc = db.backend.DynamicFromLabels(w.g, in, out)
	return nil
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
