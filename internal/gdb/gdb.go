// Package gdb implements the graph database of Section 3: per-label base
// tables T_X(X, X_in, X_out) holding 2-hop graph codes under a primary
// index, the W-table, and the cluster-based R-join index.
//
// All persistent structures live in pages accessed through a buffer pool,
// so every probe contributes to the I/O cost metric the experiments report.
//
// Center/cluster semantics (Section 3.2, following the compact codes of
// Example 3.1): the stored code of node v omits v itself; full codes are
// in(v) = In(v) ∪ {v} and out(v) = Out(v) ∪ {v}. The center set is every
// node that appears in at least one stored code. For a center w,
//
//	F-cluster  U_w = {u : w ∈ out(u)} = {u : w ∈ stored-Out(u)} ∪ {w}
//	T-cluster  V_w = {v : w ∈ in(v)}  = {v : w ∈ stored-In(v)} ∪ {w}
//
// subdivided by node label into F-/T-subclusters. W(X, Y) lists the centers
// with a non-empty X-labeled F-subcluster and a non-empty Y-labeled
// T-subcluster. For any two nodes with distinct labels, x ⇝ y holds iff
// some center w ∈ W(label(x), label(y)) has x ∈ U_w and y ∈ V_w, so R-joins
// are answerable entirely from the index.
package gdb

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"fastmatch/internal/epoch"
	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
	"fastmatch/internal/storage"
	"fastmatch/internal/twohop"
)

// ErrClosed is returned by DB (and Engine) methods called after Close.
var ErrClosed = errors.New("gdb: database is closed")

// Options configures Build.
type Options struct {
	// Path is the page file location; empty means in-memory.
	Path string
	// PoolBytes sizes the buffer pool (default storage.DefaultPoolBytes,
	// the paper's 1 MB).
	PoolBytes int
	// CodeCacheEntries bounds the working cache of decoded graph codes
	// (the paper's getCenters cache). Default 65536; negative disables.
	CodeCacheEntries int
}

// DB is a built graph database, maintained as a sequence of immutable
// snapshot epochs (see Snap). The read path never blocks on writers: a
// reader pins the current epoch (Pin, or implicitly through the
// convenience wrappers below) and reads one consistent version of every
// structure. Writers (ApplyEdgeInsert/ApplyEdgeInserts) are serialised by
// writeMu; they prepare the next snapshot on private copy-on-write pages —
// sharing every untouched B+-tree page with the published version — and
// publish it atomically. Pages superseded by a publish are returned to the
// pool's free list once the last epoch referencing them retires.
type DB struct {
	idx *twohop.Cover      // nil for a database reattached with Open
	inc *reach.Incremental // lazily seeded by the first edge update

	pager storage.Pager
	pool  *storage.BufferPool
	heap  *storage.HeapFile

	// mgr publishes snapshot epochs; garbage is superseded page IDs.
	mgr *epoch.Manager[*Snap, storage.PageID]

	codeCacheEntries int
	// memoBound is each decoded memo's size bound in node-ID units — the
	// subcluster memo's and the partner tables' alike
	// (fastClusterCacheNodes; tests shrink it to force resets) — and
	// memoResets counts the overflow resets across all epochs.
	memoBound  int
	memoResets atomic.Int64
	// rank[v] is v's position in the extent of its label: the slot a
	// partner table gives v. The node set never changes, so it is computed
	// once, when the first snapshot is published.
	rank []int32

	// Projection-set accounting across all epochs: full computations
	// (Snap.projection), sets a publish carried into the successor epoch,
	// and those of them whose content the batch changed.
	projScans, projInherited, projPatched atomic.Int64

	closed atomic.Bool

	// writeMu serialises writers: insert batches and Sync/Persist. Readers
	// never take it — they pin an epoch. Lock ordering: writeMu before any
	// snapshot-internal lock, never the reverse.
	writeMu sync.Mutex

	// insertPublishHook, when set (tests only), runs after an insert batch
	// has fully prepared its private next snapshot, immediately before the
	// atomic publish — the window in which readers must still see the old
	// epoch without blocking.
	insertPublishHook func()

	// Persistence bookkeeping (see persist.go): the manifest path this
	// database syncs to, the RIDs of the last-written graph records, and
	// whether the in-memory graph has drifted from them since. Mutated only
	// at build/open time or under writeMu.
	path           string
	nodesRID       uint64
	edgesRID       uint64
	graphPersisted bool
	graphDirty     bool
	bulkBuilt      bool // trees were bulk-loaded and untouched since
}

type wKey struct{ x, y graph.Label }

type codes struct{ in, out []graph.NodeID }

const (
	dirF byte = 0
	dirT byte = 1
)

// Build constructs the database for g: computes the 2-hop cover, then
// writes the base tables, the cluster-based R-join index, and the W-table.
func Build(g *graph.Graph, opt Options) (*DB, error) {
	return BuildFromIndex(g, twohop.Compute(g, twohop.Options{}), opt)
}

// BuildFromIndex is Build with a precomputed cover of g (to share one
// labeling across several database configurations in benchmarks, or to
// store a cover in a non-default landmark order).
func BuildFromIndex(g *graph.Graph, idx *twohop.Cover, opt Options) (*DB, error) {
	if opt.PoolBytes == 0 {
		opt.PoolBytes = storage.DefaultPoolBytes
	}
	if opt.CodeCacheEntries == 0 {
		opt.CodeCacheEntries = 65536
	}
	var pager storage.Pager
	if opt.Path == "" {
		pager = storage.NewMemPager()
	} else {
		fp, err := storage.OpenFilePager(opt.Path)
		if err != nil {
			return nil, err
		}
		pager = fp
	}
	db := &DB{
		idx:              idx,
		pager:            pager,
		pool:             storage.NewBufferPool(pager, opt.PoolBytes),
		codeCacheEntries: opt.CodeCacheEntries,
		memoBound:        fastClusterCacheNodes,
	}
	db.heap = storage.NewHeapFile(db.pool)
	db.path = opt.Path
	db.bulkBuilt = true
	s := db.newSnap(g)
	s.coverSize = idx.Size()
	if err := db.buildBaseTables(s); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.buildClusterIndexAndWTable(s); err != nil {
		db.Close()
		return nil, err
	}
	db.publishInitial(s)
	if opt.Path != "" {
		if err := db.Persist(opt.Path); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// newSnap returns an empty snapshot shell with fresh caches.
func (db *DB) newSnap(g *graph.Graph) *Snap {
	return &Snap{
		db:        db,
		g:         g,
		base:      make(map[graph.Label]*storage.BTree),
		sig:       newSignature(),
		wcache:    make(map[wKey][]graph.NodeID),
		codeCache: newCodeCache(g.NumNodes(), db.codeCacheEntries),
		projFrom:  make(map[wKey]*NodeSet),
		projTo:    make(map[wKey]*NodeSet),
	}
}

// publishInitial seals the heap, ranks the nodes, and installs s as epoch
// 0. Called once, from Build or Open, before any concurrency exists.
func (db *DB) publishInitial(s *Snap) {
	db.heap.Seal()
	db.rank = make([]int32, s.g.NumNodes())
	for l := 0; l < s.g.Labels().Len(); l++ {
		for i, v := range s.g.Extent(graph.Label(l)) {
			db.rank[v] = int32(i)
		}
	}
	db.mgr = epoch.NewManager[*Snap, storage.PageID](s, db.freePages)
}

// freePages recycles pages whose reclamation horizon has passed: no live
// epoch references them anymore. Best-effort — a page that cannot be freed
// merely stays allocated.
func (db *DB) freePages(ids []storage.PageID) {
	if db.closed.Load() {
		return
	}
	for _, id := range ids {
		_ = db.pool.FreePage(id)
	}
}

// Close releases the pager. Close is idempotent; after the first call
// every query-path method returns ErrClosed.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	return db.pager.Close()
}

// Closed reports whether Close has been called.
func (db *DB) Closed() bool { return db.closed.Load() }

// Pin acquires the current snapshot epoch for reading and returns it with
// a release func (call it — usually deferred — when the read operation
// completes). The snapshot stays fully readable, and its pages
// unreclaimed, until released; the writer is never blocked and never
// blocks the reader. Pin an epoch once per outermost operation (a plan
// build plus its execution, a single Reaches) so the whole operation sees
// one version.
func (db *DB) Pin() (*Snap, func()) { return db.mgr.Pin() }

// EpochStats reports the epoch manager's bookkeeping: current epoch,
// live (pinned) epoch count, age of the oldest live epoch, and how many
// superseded epochs have been retired.
func (db *DB) EpochStats() epoch.Stats { return db.mgr.Stats() }

// Graph returns the underlying data graph as of the current epoch. The
// returned handle is immutable: edge inserts publish a copy-on-write
// successor, so a held pointer keeps describing the graph as of when it
// was taken.
func (db *DB) Graph() *graph.Graph { return db.mgr.Current().g }

// Index returns the cover the database was built from, or nil for a
// database reattached with Open (the labeling's information lives in the
// stored graph codes; only the object is not reloaded).
func (db *DB) Index() *twohop.Cover { return db.idx }

// CoverSize returns the labeling size |H| as of the current epoch,
// available on both built and opened databases.
func (db *DB) CoverSize() int { return db.mgr.Current().coverSize }

// IOStats returns the buffer pool counters.
func (db *DB) IOStats() storage.IOStats { return db.pool.Stats() }

// DecodedMemoStats reports the decoded read path's memos: what the current
// epoch's subcluster memo and partner tables hold, in node-ID (4-byte)
// units, how many partner tables there are, and how often a memo overflowed
// its bound and reset, across all epochs.
func (db *DB) DecodedMemoStats() (nodes, tables int, resets int64) {
	nodes, tables = db.mgr.Current().decodedMemo()
	return nodes, tables, db.memoResets.Load()
}

// ProjectionStats reports, across all epochs, how many projection sets
// were computed in full (scans), carried by a publish into the successor
// epoch (inherited), and of those changed by the batch (patched).
func (db *DB) ProjectionStats() (scans, inherited, patched int64) {
	return db.projScans.Load(), db.projInherited.Load(), db.projPatched.Load()
}

// ProjectionBytes returns the memory the current epoch's memoized
// projection sets occupy: 8·⌈|V|/64⌉ bytes each.
func (db *DB) ProjectionBytes() int { return db.mgr.Current().projectionBytes() }

// ResetIOStats zeroes the buffer pool counters (e.g. after Build, before a
// measured query).
func (db *DB) ResetIOStats() { db.pool.ResetStats() }

// ClearCaches empties the current epoch's in-memory W-table, graph-code,
// and statistics caches so a measured query starts cold.
func (db *DB) ClearCaches() { db.mgr.Current().clearCaches() }

// NumCenters returns the number of centers in the cluster-based index as
// of the current epoch.
func (db *DB) NumCenters() int { return db.mgr.Current().numCenters }

// Heap exposes the database's record heap (read-only after Build; reads
// are safe for concurrent use).
func (db *DB) Heap() *storage.HeapFile { return db.heap }

// NewScratchHeap returns a fresh single-writer heap on the database's
// shared buffer pool for one query's intermediate results. Spilled pages
// share the pool — so intermediate-result sizes are charged as I/O, as in
// the paper's disk-resident (MiniBase) executor — but are private to the
// query; callers must Release the heap when done so its pages recycle.
func (db *DB) NewScratchHeap() *storage.HeapFile {
	return storage.NewScratchHeap(db.pool)
}

// SizeBytes returns the database's on-disk size (all allocated pages).
func (db *DB) SizeBytes() int { return db.pager.NumPages() * storage.PageSize }

// ResizePool changes the buffer pool capacity (see the paper's 1 MB buffer
// versus 20–100 MB datasets; benchmarks scale the pool to keep the same
// buffer-to-data ratio on scaled-down data).
func (db *DB) ResizePool(bytes int) error { return db.pool.Resize(bytes) }

func (db *DB) buildBaseTables(s *Snap) error {
	g := s.g
	n := g.NumNodes()
	// Heap appends go in node order, so record placement is deterministic.
	rids := make([]uint64, n)
	byLabel := make([][]graph.NodeID, g.Labels().Len())
	for v := graph.NodeID(0); int(v) < n; v++ {
		rid, err := db.heap.Insert(encodeCodes(db.idx.In(v), db.idx.Out(v)))
		if err != nil {
			return err
		}
		rids[v] = rid.Encode()
		l := g.LabelOf(v)
		byLabel[l] = append(byLabel[l], v)
	}
	// Node IDs ascend within each label, so each base table's primary index
	// is a sorted key stream — bulk-load it bottom-up instead of descending
	// the tree once per node.
	for l := range byLabel {
		tree, err := storage.BulkLoad(db.pool, func(emit func([]byte, uint64) error) error {
			for _, v := range byLabel[l] {
				if err := emit(nodeKey(v), rids[v]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		s.base[graph.Label(l)] = tree
	}
	return nil
}

func (db *DB) buildClusterIndexAndWTable(s *Snap) error {
	inv := db.invertCover(s.g)
	s.numCenters = len(inv.centers)
	L := inv.nLabels

	// The inversion lays subcluster segments out in exactly cluster-key
	// order — (center asc, dir F then T, label asc) — so the cluster index
	// is bulk-loaded from one sweep. W-table contributions fall out of the
	// same sweep: centers are visited ascending, keeping every W list
	// sorted without a per-list sort.
	wmap := make(map[wKey][]graph.NodeID)
	sig := newSignature()
	var err error
	s.cluster, err = storage.BulkLoad(db.pool, func(emit func([]byte, uint64) error) error {
		var fls, tls []graph.Label
		var fsz, tsz []int
		for ci, w := range inv.centers {
			fls, tls = fls[:0], tls[:0]
			fsz, tsz = fsz[:0], tsz[:0]
			for dir := 0; dir < 2; dir++ {
				for l := 0; l < L; l++ {
					s := (ci*2+dir)*L + l
					seg := inv.members[inv.offsets[s]:inv.offsets[s+1]]
					if len(seg) == 0 {
						continue
					}
					rid, err := db.heap.Insert(encodeNodeList(seg))
					if err != nil {
						return err
					}
					if err := emit(clusterKey(w, byte(dir), graph.Label(l)), rid.Encode()); err != nil {
						return err
					}
					if dir == int(dirF) {
						fls = append(fls, graph.Label(l))
						fsz = append(fsz, len(seg))
					} else {
						tls = append(tls, graph.Label(l))
						tsz = append(tsz, len(seg))
					}
				}
			}
			// W-table contributions: every (X-labeled F, Y-labeled T) pair.
			// The fan signature accumulates from the same segment sizes.
			sig.addCenter(fls, fsz, tls, tsz)
			for _, lx := range fls {
				for _, ly := range tls {
					k := wKey{lx, ly}
					wmap[k] = append(wmap[k], w)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.sig = sig

	keys := make([]wKey, 0, len(wmap))
	for k := range wmap {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b wKey) int {
		if a.x != b.x {
			return int(a.x) - int(b.x)
		}
		return int(a.y) - int(b.y)
	})
	s.wtable, err = storage.BulkLoad(db.pool, func(emit func([]byte, uint64) error) error {
		for _, k := range keys {
			rid, err := db.heap.Insert(encodeNodeList(wmap[k]))
			if err != nil {
				return err
			}
			if err := emit(wtableKey(k.x, k.y), rid.Encode()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return db.pool.FlushAll()
}

func insertSorted(s []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// The read methods below are pin-per-call conveniences: each pins the
// current epoch for just that one lookup. Operations that issue many
// lookups and need them mutually consistent (a plan build plus its run)
// should Pin once and use the Snap methods directly.

// Centers returns W(X, Y): the centers whose clusters can produce (X, Y)
// R-join pairs, sorted ascending. Returns nil when the entry is empty.
func (db *DB) Centers(x, y graph.Label) ([]graph.NodeID, error) {
	s, release := db.Pin()
	defer release()
	return s.Centers(x, y)
}

// GetF returns the X-labeled F-subcluster of center w (nodes u with
// u ⇝ w), sorted ascending; nil when empty.
func (db *DB) GetF(w graph.NodeID, x graph.Label) ([]graph.NodeID, error) {
	s, release := db.Pin()
	defer release()
	return s.GetF(w, x)
}

// GetT returns the Y-labeled T-subcluster of center w (nodes v with
// w ⇝ v), sorted ascending; nil when empty.
func (db *DB) GetT(w graph.NodeID, y graph.Label) ([]graph.NodeID, error) {
	s, release := db.Pin()
	defer release()
	return s.GetT(w, y)
}

// OutCode returns the full graph code out(x) = stored X_out ∪ {x}, sorted
// ascending.
func (db *DB) OutCode(x graph.NodeID) ([]graph.NodeID, error) {
	s, release := db.Pin()
	defer release()
	return s.OutCode(x)
}

// InCode returns the full graph code in(x) = stored X_in ∪ {x}, sorted
// ascending.
func (db *DB) InCode(x graph.NodeID) ([]graph.NodeID, error) {
	s, release := db.Pin()
	defer release()
	return s.InCode(x)
}

// Reaches evaluates u ⇝ v from graph codes: out(u) ∩ in(v) ≠ ∅.
func (db *DB) Reaches(u, v graph.NodeID) (bool, error) {
	s, release := db.Pin()
	defer release()
	return s.Reaches(u, v)
}

// JoinSize estimates |T_X ⋈_{X→Y} T_Y| as Σ_{w∈W(X,Y)} |F_X(w)|·|T_Y(w)|.
func (db *DB) JoinSize(x, y graph.Label) (int64, error) {
	s, release := db.Pin()
	defer release()
	return s.JoinSize(x, y)
}

// DistinctFrom returns |π_X(T_X ⋈_{X→Y} T_Y)|.
func (db *DB) DistinctFrom(x, y graph.Label) (int64, error) {
	s, release := db.Pin()
	defer release()
	return s.DistinctFrom(x, y)
}

// DistinctTo returns |π_Y(T_X ⋈_{X→Y} T_Y)|.
func (db *DB) DistinctTo(x, y graph.Label) (int64, error) {
	s, release := db.Pin()
	defer release()
	return s.DistinctTo(x, y)
}

// gallopRatio is the size skew at which intersection switches from the
// linear merge to galloping probes: with |large| ≥ gallopRatio·|small| the
// O(|small|·log|large|) search beats the O(|small|+|large|) scan. Graph
// codes intersected with W-table center lists are routinely skewed three
// orders of magnitude (a node's code holds a few centers; W(X, Y) holds
// thousands), which is exactly the regime galloping wins.
const gallopRatio = 16

// IntersectNonEmpty reports whether two ascending NodeID slices share an
// element. Heavily skewed inputs use galloping (exponential + binary)
// probes of the larger slice; balanced inputs use the linear merge.
func IntersectNonEmpty(a, b []graph.NodeID) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return false
	}
	if len(b) >= gallopRatio*len(a) {
		lo := 0
		for _, v := range a {
			i, found := gallopSearch(b, lo, v)
			if found {
				return true
			}
			if i >= len(b) {
				return false
			}
			lo = i
		}
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Intersect returns the elements common to two ascending NodeID slices,
// galloping through the larger slice when the sizes are heavily skewed.
func Intersect(a, b []graph.NodeID) []graph.NodeID {
	return IntersectTo(nil, a, b)
}

// IntersectTo is Intersect writing into dst (reset to length zero), reusing
// its capacity: a fused Fetch calls it once per filter per input row, where
// a fresh allocation per intersection would dominate.
//
// dst may start where an input starts — IntersectTo(cur[:0], cur, other)
// intersects cur in place, which is how a Fetch applies one filter after
// another to a list it owns: in the merge and in the gallop branch alike,
// and whichever of the two inputs is the shorter, the k-th match is written
// at index k, no further than the entry of cur it was just read from and
// behind everything still to be read or searched. No other overlap is
// supported: dst must not share storage with the other input, nor start
// inside either one.
func IntersectTo(dst, a, b []graph.NodeID) []graph.NodeID {
	dst = dst[:0]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= gallopRatio*len(a) {
		lo := 0
		for _, v := range a {
			i, found := gallopSearch(b, lo, v)
			if found {
				dst = append(dst, v)
				i++
			}
			if i >= len(b) {
				break
			}
			lo = i
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst
}

// gallopSearch finds the insertion point of v in the ascending slice s
// starting from lo: it widens an exponentially growing window until the
// window's upper bound passes v, then binary-searches inside it. Returns
// the first index i ≥ lo with s[i] ≥ v and whether s[i] == v. The combined
// cost over one intersection is O(|small|·log(gap)) — sub-linear in |s|
// when matches cluster, never worse than binary search per probe.
func gallopSearch(s []graph.NodeID, from int, v graph.NodeID) (int, bool) {
	lo, hi := from, from
	for step := 1; hi < len(s) && s[hi] < v; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	end := hi + 1
	if end > len(s) {
		end = len(s)
	}
	for lo < end {
		mid := int(uint(lo+end) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	return lo, lo < len(s) && s[lo] == v
}

// Key encodings. Big-endian keeps B+-tree order aligned with numeric order.

func nodeKey(v graph.NodeID) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	return b[:]
}

func wtableKey(x, y graph.Label) []byte {
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(x))
	binary.BigEndian.PutUint32(b[4:8], uint32(y))
	return b[:]
}

func clusterKey(w graph.NodeID, dir byte, l graph.Label) []byte {
	var b [9]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(w))
	b[4] = dir
	binary.BigEndian.PutUint32(b[5:9], uint32(l))
	return b[:]
}

// Record encodings.

func encodeNodeList(nodes []graph.NodeID) []byte {
	b := make([]byte, 4+4*len(nodes))
	binary.LittleEndian.PutUint32(b, uint32(len(nodes)))
	for i, v := range nodes {
		binary.LittleEndian.PutUint32(b[4+4*i:], uint32(v))
	}
	return b
}

func decodeNodeList(b []byte) []graph.NodeID {
	n := binary.LittleEndian.Uint32(b)
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(binary.LittleEndian.Uint32(b[4+4*i:]))
	}
	return out
}

func encodeCodes(in, out []graph.NodeID) []byte {
	b := make([]byte, 8+4*(len(in)+len(out)))
	binary.LittleEndian.PutUint32(b, uint32(len(in)))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(out)))
	o := 8
	for _, v := range in {
		binary.LittleEndian.PutUint32(b[o:], uint32(v))
		o += 4
	}
	for _, v := range out {
		binary.LittleEndian.PutUint32(b[o:], uint32(v))
		o += 4
	}
	return b
}

func decodeCodes(b []byte) (in, out []graph.NodeID) {
	ni := binary.LittleEndian.Uint32(b)
	no := binary.LittleEndian.Uint32(b[4:])
	in = make([]graph.NodeID, ni)
	out = make([]graph.NodeID, no)
	o := 8
	for i := range in {
		in[i] = graph.NodeID(binary.LittleEndian.Uint32(b[o:]))
		o += 4
	}
	for i := range out {
		out[i] = graph.NodeID(binary.LittleEndian.Uint32(b[o:]))
		o += 4
	}
	return in, out
}
