package gdb

import (
	"fmt"
	"sync"

	"fastmatch/internal/graph"
	"fastmatch/internal/storage"
)

// Snap is one published epoch of the database: an immutable bundle of the
// graph handle, the base tables, the cluster index, and the W-table, plus
// this epoch's derived caches. The entire read path lives on Snap, so a
// reader that pins an epoch (DB.Pin) sees one consistent version of every
// structure for as long as it holds the pin — no locks against the writer,
// which prepares the next version on private copy-on-write pages and
// publishes it atomically.
//
// Index content is immutable within an epoch, so the caches memoizing
// decoded content (W lists, graph codes, decoded subclusters, partner
// tables) are never invalidated; a successor epoch starts from the survivors
// of its predecessor minus the entries the write batch touched (see
// snapWriter.publish). The memoized projections are inherited
// too, patched from the batch's label deltas rather than dropped
// (inheritProjections); the fan signature is maintained by the writer. What
// a query reads per row — graph codes and partner-table slots — is read with
// atomic loads and no lock; the locks below only coordinate readers filling
// the per-operator structures behind them.
type Snap struct {
	db *DB
	g  *graph.Graph

	base    map[graph.Label]*storage.BTree // primary index per base table
	wtable  *storage.BTree                 // (X,Y) → RID of center list
	cluster *storage.BTree                 // (w, dir, label) → RID of node list

	numCenters int
	coverSize  int
	epoch      uint64

	// sig is the per-label fan-signature table (see signature.go):
	// immutable within the epoch, maintained across epochs by the
	// snapshot writer.
	sig *Signature

	wmu       sync.RWMutex
	wcache    map[wKey][]graph.NodeID
	codeCache *codeCache

	// clmu guards the decoded-subcluster memo: what HPSJ reads per center
	// and what fills a partner-table slot (see Reader). Only the counted-I/O
	// reference mode bypasses it, fetching every subcluster and code through
	// the buffer pool as the paper's disk-resident executor does.
	clmu    sync.RWMutex
	clcache map[clKey][]graph.NodeID
	clNodes int // total node IDs held, for the memo's size bound

	// pmu guards the set of partner tables and its share of the memo
	// budget, never a slot (see partners.go).
	pmu    sync.Mutex
	ptabs  map[partnerKey]*partnerTable
	pNodes int

	// projFrom/projTo memoize the distinct projections π_X(T_X ⋈ T_Y) and
	// π_Y(T_X ⋈ T_Y) as node sets: the optimizer's DistinctFrom/To
	// statistics are their sizes, and an R-semijoin on the decoded read
	// path is membership in them.
	statMu   sync.Mutex // guards the two maps
	projFrom map[wKey]*NodeSet
	projTo   map[wKey]*NodeSet
}

// Epoch returns this snapshot's epoch number (0 for the build).
func (s *Snap) Epoch() uint64 { return s.epoch }

// Graph returns the data graph as of this epoch. The graph handle is
// immutable; edge inserts build a copy-on-write successor for the next
// epoch.
func (s *Snap) Graph() *graph.Graph { return s.g }

// NumCenters returns the number of centers in this epoch's R-join index.
func (s *Snap) NumCenters() int { return s.numCenters }

// CoverSize returns the 2-hop cover size |H| as of this epoch.
func (s *Snap) CoverSize() int { return s.coverSize }

// IOStats returns the shared buffer pool counters.
func (s *Snap) IOStats() storage.IOStats { return s.db.pool.Stats() }

// NewScratchHeap returns a fresh single-writer heap on the database's
// shared buffer pool for one query's intermediate results. Spilled pages
// share the pool — so intermediate-result sizes are charged as I/O, as in
// the paper's disk-resident (MiniBase) executor — but are private to the
// query; callers must Release the heap when done so its pages recycle.
func (s *Snap) NewScratchHeap() *storage.HeapFile {
	return storage.NewScratchHeap(s.db.pool)
}

// Centers returns W(X, Y): the centers whose clusters can produce (X, Y)
// R-join pairs, sorted ascending. Returns nil when the entry is empty.
func (s *Snap) Centers(x, y graph.Label) ([]graph.NodeID, error) {
	if s.db.closed.Load() {
		return nil, ErrClosed
	}
	k := wKey{x, y}
	s.wmu.RLock()
	ws, ok := s.wcache[k]
	s.wmu.RUnlock()
	if ok {
		return ws, nil
	}
	v, ok, err := s.wtable.Get(wtableKey(x, y))
	if err != nil {
		return nil, err
	}
	if ok {
		rec, err := s.db.heap.Read(storage.DecodeRID(v))
		if err != nil {
			return nil, err
		}
		ws = decodeNodeList(rec)
	}
	s.wmu.Lock()
	s.wcache[k] = ws
	s.wmu.Unlock()
	return ws, nil
}

// GetF returns the X-labeled F-subcluster of center w (nodes u with
// u ⇝ w), sorted ascending; nil when empty.
func (s *Snap) GetF(w graph.NodeID, x graph.Label) ([]graph.NodeID, error) {
	return s.clusterLookup(w, dirF, x)
}

// GetT returns the Y-labeled T-subcluster of center w (nodes v with
// w ⇝ v), sorted ascending; nil when empty.
func (s *Snap) GetT(w graph.NodeID, y graph.Label) ([]graph.NodeID, error) {
	return s.clusterLookup(w, dirT, y)
}

// clKey identifies one decoded subcluster in the memo.
type clKey struct {
	w   graph.NodeID
	dir byte
	l   graph.Label
}

// fastClusterCacheNodes bounds each decoded memo: the total node IDs held
// across all cached lists (≈4 MB at the 1M default). On overflow the memo
// resets — an epoch-local cache, not a second index.
const fastClusterCacheNodes = 1 << 20

// Reader is one goroutine's handle on a snapshot's decoded read path: the
// per-epoch memo of decoded subclusters and the partner tables that every
// operator reads through. The first access per key decodes from storage
// through the buffer pool (GetF/GetT, graph codes); repeats — by any query
// on the epoch — are served from memory. A Reader counts its own lookups,
// so the shared structures carry no counter on the hit path. Not safe for
// concurrent use; returned slices are shared and must not be mutated.
type Reader struct {
	s *Snap
	// Hits/Misses count every subcluster-memo and partner-slot lookup this
	// reader made; CenterHits/CenterMisses the partner-slot share of them.
	Hits, Misses             int64
	CenterHits, CenterMisses int64
}

// Reader returns a fresh decoded-path reader on this snapshot.
func (s *Snap) Reader() *Reader { return &Reader{s: s} }

// F is GetF through the epoch's decoded-subcluster memo.
func (r *Reader) F(w graph.NodeID, x graph.Label) ([]graph.NodeID, error) {
	return r.cluster(w, dirF, x)
}

// T is GetT through the epoch's decoded-subcluster memo.
func (r *Reader) T(w graph.NodeID, y graph.Label) ([]graph.NodeID, error) {
	return r.cluster(w, dirT, y)
}

// FastF is GetF through the epoch's decoded-subcluster memo, for callers
// that do not keep a Reader.
func (s *Snap) FastF(w graph.NodeID, x graph.Label) ([]graph.NodeID, error) {
	return s.Reader().F(w, x)
}

// FastT is GetT through the epoch's decoded-subcluster memo (see FastF).
func (s *Snap) FastT(w graph.NodeID, y graph.Label) ([]graph.NodeID, error) {
	return s.Reader().T(w, y)
}

func (r *Reader) cluster(w graph.NodeID, dir byte, l graph.Label) ([]graph.NodeID, error) {
	s := r.s
	k := clKey{w, dir, l}
	s.clmu.RLock()
	nodes, ok := s.clcache[k]
	s.clmu.RUnlock()
	if ok {
		r.Hits++
		return nodes, nil
	}
	r.Misses++
	nodes, err := s.clusterLookup(w, dir, l)
	if err != nil {
		return nil, err
	}
	return s.memoPut(k, nodes), nil
}

// memoPut stores one decoded subcluster in the memo, charging its length
// against the bound, and returns the list the memo holds for k: list, or
// the one a reader that decoded the same key at the same time stored first.
// Callers use the returned list, so every reader of a key shares one charged
// copy. A memo that would overflow is emptied first: it is an epoch-local
// cache, not a second index. Readers hold the lists, not the map, so a reset
// never disturbs a running query.
func (s *Snap) memoPut(k clKey, list []graph.NodeID) []graph.NodeID {
	s.clmu.Lock()
	defer s.clmu.Unlock()
	if kept, dup := s.clcache[k]; dup {
		return kept
	}
	if s.clNodes+len(list) > s.db.memoBound {
		s.clcache, s.clNodes = nil, 0
		s.db.memoResets.Add(1)
	}
	if s.clcache == nil {
		s.clcache = make(map[clKey][]graph.NodeID)
	}
	s.clcache[k] = list
	s.clNodes += len(list)
	return list
}

// DecodedMemoNodes returns what this epoch's decoded memos hold
// (subcluster lists plus partner tables): their resident size in 4-byte
// units.
func (s *Snap) DecodedMemoNodes() int {
	nodes, _ := s.decodedMemo()
	return nodes
}

func (s *Snap) decodedMemo() (nodes, tables int) {
	s.clmu.RLock()
	nodes = s.clNodes
	s.clmu.RUnlock()
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return nodes + s.pNodes, len(s.ptabs)
}

func (s *Snap) clusterLookup(w graph.NodeID, dir byte, l graph.Label) ([]graph.NodeID, error) {
	if s.db.closed.Load() {
		return nil, ErrClosed
	}
	v, ok, err := s.cluster.Get(clusterKey(w, dir, l))
	if err != nil || !ok {
		return nil, err
	}
	rec, err := s.db.heap.Read(storage.DecodeRID(v))
	if err != nil {
		return nil, err
	}
	return decodeNodeList(rec), nil
}

// OutCode returns the full graph code out(x) = stored X_out ∪ {x}, sorted
// ascending. Reads the base table through its primary index, with the
// working cache of Section 3.3.
func (s *Snap) OutCode(x graph.NodeID) ([]graph.NodeID, error) {
	c, err := s.getCodes(x)
	if err != nil {
		return nil, err
	}
	return c.out, nil
}

// InCode returns the full graph code in(x) = stored X_in ∪ {x}, sorted
// ascending.
func (s *Snap) InCode(x graph.NodeID) ([]graph.NodeID, error) {
	c, err := s.getCodes(x)
	if err != nil {
		return nil, err
	}
	return c.in, nil
}

func (s *Snap) getCodes(x graph.NodeID) (*codes, error) {
	if c := s.codeCache.get(x); c != nil {
		return c, nil
	}
	if s.db.closed.Load() {
		return nil, ErrClosed
	}
	v, ok, err := s.base[s.g.LabelOf(x)].Get(nodeKey(x))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("gdb: node %d missing from base table", x)
	}
	rec, err := s.db.heap.Read(storage.DecodeRID(v))
	if err != nil {
		return nil, err
	}
	in, out := decodeCodes(rec)
	c := &codes{in: insertSorted(in, x), out: insertSorted(out, x)}
	s.codeCache.put(x, c)
	return c, nil
}

// Reaches evaluates u ⇝ v from graph codes: out(u) ∩ in(v) ≠ ∅.
func (s *Snap) Reaches(u, v graph.NodeID) (bool, error) {
	if u == v {
		return true, nil
	}
	ou, err := s.OutCode(u)
	if err != nil {
		return false, err
	}
	iv, err := s.InCode(v)
	if err != nil {
		return false, err
	}
	return IntersectNonEmpty(ou, iv), nil
}

// JoinSize estimates |T_X ⋈_{X→Y} T_Y| as Σ_{w∈W(X,Y)} |F_X(w)|·|T_Y(w)|
// (an upper bound: a pair may be covered by several centers) by scanning
// the clusters. The optimizer reads the same value from the maintained fan
// signature (Signature.Pair); this scan is the reference it is tested
// against.
func (s *Snap) JoinSize(x, y graph.Label) (int64, error) {
	ws, err := s.Centers(x, y)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, w := range ws {
		f, err := s.GetF(w, x)
		if err != nil {
			return 0, err
		}
		t, err := s.GetT(w, y)
		if err != nil {
			return 0, err
		}
		total += int64(len(f)) * int64(len(t))
	}
	return total, nil
}

// DistinctFrom returns |π_X(T_X ⋈_{X→Y} T_Y)|: the number of X-labeled
// nodes that reach at least one Y-labeled node, computed exactly as the
// union of the X-labeled F-subclusters over W(X, Y). Memoized.
func (s *Snap) DistinctFrom(x, y graph.Label) (int64, error) {
	p, err := s.ProjectFrom(x, y)
	if err != nil {
		return 0, err
	}
	return int64(p.Len()), nil
}

// DistinctTo returns |π_Y(T_X ⋈_{X→Y} T_Y)|: the number of Y-labeled nodes
// reached from at least one X-labeled node. Memoized.
func (s *Snap) DistinctTo(x, y graph.Label) (int64, error) {
	p, err := s.ProjectTo(x, y)
	if err != nil {
		return 0, err
	}
	return int64(p.Len()), nil
}

// ProjectFrom returns π_X(T_X ⋈_{X→Y} T_Y) as a node set: every X-labeled
// node that reaches at least one Y-labeled node, computed as the union of
// the X-labeled F-subclusters over W(X, Y). The set is memoized per
// snapshot and shared — callers must not mutate it.
func (s *Snap) ProjectFrom(x, y graph.Label) (*NodeSet, error) {
	return s.projection(x, y, dirF, x, s.projFrom)
}

// ProjectTo returns π_Y(T_X ⋈_{X→Y} T_Y) as a node set: every Y-labeled
// node reached from at least one X-labeled node (union of the Y-labeled
// T-subclusters over W(X, Y)). Memoized and shared; do not mutate.
func (s *Snap) ProjectTo(x, y graph.Label) (*NodeSet, error) {
	return s.projection(x, y, dirT, y, s.projTo)
}

// projection is the one full computation of a projection set: the cold
// start of an epoch's memo, and the reference the sets a successor epoch
// inherits (inheritProjections) are tested against.
func (s *Snap) projection(x, y graph.Label, dir byte, side graph.Label, memo map[wKey]*NodeSet) (*NodeSet, error) {
	k := wKey{x, y}
	s.statMu.Lock()
	p, ok := memo[k]
	s.statMu.Unlock()
	if ok {
		return p, nil
	}
	s.db.projScans.Add(1)
	ws, err := s.Centers(x, y)
	if err != nil {
		return nil, err
	}
	set := newNodeSet(s.g.NumNodes())
	for _, w := range ws {
		nodes, err := s.clusterLookup(w, dir, side)
		if err != nil {
			return nil, err
		}
		for _, v := range nodes {
			set.add(v)
		}
	}
	s.statMu.Lock()
	memo[k] = set
	s.statMu.Unlock()
	return set, nil
}

// projectionBytes returns the memory the epoch's memoized projection sets
// occupy.
func (s *Snap) projectionBytes() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	total := 0
	for _, memo := range []map[wKey]*NodeSet{s.projFrom, s.projTo} {
		for _, p := range memo {
			total += p.sizeBytes()
		}
	}
	return total
}

// clearCaches empties this epoch's derived data caches (cold-start
// benchmarks). The memoized projections stay: they hold exact per-snapshot
// values that cannot go stale within an epoch, and benchmarks charge their
// cost on first access only.
func (s *Snap) clearCaches() {
	s.wmu.Lock()
	s.wcache = make(map[wKey][]graph.NodeID)
	s.wmu.Unlock()
	s.clmu.Lock()
	s.clcache, s.clNodes = nil, 0
	s.clmu.Unlock()
	s.pmu.Lock()
	s.ptabs, s.pNodes = nil, 0
	s.pmu.Unlock()
	s.codeCache.clear()
}
