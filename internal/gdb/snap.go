package gdb

import (
	"sync"

	"fastmatch/internal/graph"
	"fastmatch/internal/storage"
)

// Snap is one published epoch of the database: an immutable bundle of the
// graph handle, the base tables, the cluster index, the W-table and the
// decoded index, plus this epoch's derived caches. The entire read path
// lives on Snap, so a reader that pins an epoch (DB.Pin) sees one
// consistent version of every structure for as long as it holds the pin —
// no locks against the writer, which prepares the next version on private
// copy-on-write pages and publishes it atomically.
//
// The decoded index (graph codes and subclusters, see decoded.go) is
// complete and immutable; a successor epoch shares its chunks except those
// holding a node or center the batch rewrote. Index content is immutable
// within an epoch, so the partner tables memoizing unions over it are never
// invalidated; a successor shares their slot chunks except those holding a
// slot the batch may have changed (see slotArray and snapWriter.publish).
// The memoized projections — rank sets over one label's extent (RankSet) —
// are inherited too, patched by rank from the batch's label deltas rather
// than dropped (inheritProjections); the fan signature is maintained by
// the writer. What a query reads per row — graph codes and partner-table
// slots — is read with plain or atomic loads and no lock; the locks below
// only coordinate readers filling the per-operator structures behind them.
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

	// codes and clusters are the decoded index, chunkSize node IDs a chunk:
	// every node's full codes, and every center's subclusters, which HPSJ
	// reads per center and a partner-table slot is the union of. Only the
	// counted-I/O reference mode bypasses them, fetching every subcluster
	// and code through the buffer pool as the paper's disk-resident
	// executor does.
	codes    []*codeList
	clusters []*clusterChunk

	// pmu guards the set of partner tables and its share of the memo
	// budget, never a slot (see partners.go).
	pmu    sync.Mutex
	ptabs  map[partnerKey]*partnerTable
	pNodes int

	// projFrom/projTo memoize the distinct projections π_X(T_X ⋈ T_Y) and
	// π_Y(T_X ⋈ T_Y) as rank sets over ext(X) and ext(Y): the optimizer's
	// DistinctFrom/To statistics are their sizes, and an R-semijoin on the
	// decoded read path is membership in them.
	statMu   sync.Mutex // guards the two maps
	projFrom map[wKey]*RankSet
	projTo   map[wKey]*RankSet
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
	v, ok, err := s.wtable.Get(wtableKey(x, y))
	if err != nil || !ok {
		return nil, err
	}
	rec, err := s.db.heap.Read(storage.DecodeRID(v))
	if err != nil {
		return nil, err
	}
	return decodeNodeList(rec), nil
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

// fastClusterCacheNodes bounds an epoch's partner tables: the total node
// IDs their slots and lists hold (≈4 MB at the 1M default). On overflow
// the epoch forgets its tables — an epoch-local cache, not a second index.
const fastClusterCacheNodes = 1 << 20

// Reader is one goroutine's handle on a snapshot's decoded read path: the
// decoded index and the partner tables that every operator reads through.
// A partner slot's first access computes its list from the decoded index;
// repeats — by any query on the epoch — are served from memory. A Reader
// counts its own slot lookups, so the shared tables carry no counter on the
// hit path. Not safe for concurrent use; returned slices are shared and
// must not be mutated.
type Reader struct {
	s *Snap
	// CenterHits/CenterMisses count the partner-slot lookups this reader
	// made: a hit found the slot filled, a miss filled it.
	CenterHits, CenterMisses int64

	buf []graph.NodeID // a filtered table's fill filters here
}

// Reader returns a fresh decoded-path reader on this snapshot.
func (s *Snap) Reader() *Reader { return &Reader{s: s} }

// F is GetF from the epoch's decoded index.
func (r *Reader) F(w graph.NodeID, x graph.Label) ([]graph.NodeID, error) {
	return r.s.subcluster(w, dirF, x), nil
}

// T is GetT from the epoch's decoded index.
func (r *Reader) T(w graph.NodeID, y graph.Label) ([]graph.NodeID, error) {
	return r.s.subcluster(w, dirT, y), nil
}

// FastF is GetF from the epoch's decoded index, for callers that do not
// keep a Reader.
func (s *Snap) FastF(w graph.NodeID, x graph.Label) ([]graph.NodeID, error) {
	return s.subcluster(w, dirF, x), nil
}

// DecodedMemoNodes returns what this epoch's partner tables hold: their
// resident size in 4-byte units.
func (s *Snap) DecodedMemoNodes() int { return s.decodedMemo().Nodes }

// MemoStats is what an epoch's partner tables hold (DB.DecodedMemoStats).
type MemoStats struct {
	// Nodes is their resident size in 4-byte units: every table's slots,
	// lists and bitmaps, filtered tables included.
	Nodes int
	// Tables counts the partner tables and Bitmaps the list bitmaps they
	// hold.
	Tables, Bitmaps int
	// FilteredTables counts the filtered tables, FilteredLists their
	// filled slots and FilteredBytes what those lists cost, in bytes.
	FilteredTables, FilteredLists, FilteredBytes int
	// Resets counts overflows of the memo bound across all epochs, each
	// of which dropped an epoch's tables.
	Resets int64
}

// decodedMemo recounts what the epoch's partner tables hold from the
// charges of the chunks their directories point at, each counted once,
// whichever epoch filled it.
func (s *Snap) decodedMemo() MemoStats {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	var st MemoStats
	for _, t := range s.ptabs {
		st.Nodes += int(t.charge())
		if t.base == nil {
			bitmaps, _ := t.sets.held()
			st.Tables++
			st.Bitmaps += int(bitmaps)
			continue
		}
		filled, lists := t.slots.held()
		st.FilteredTables++
		st.FilteredLists += int(filled)
		st.FilteredBytes += 4 * int(lists)
	}
	return st
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
// ascending, from the epoch's decoded index. The slice is shared and must
// not be mutated.
func (s *Snap) OutCode(x graph.NodeID) ([]graph.NodeID, error) {
	_, out := s.codesOf(x)
	return out, nil
}

// InCode returns the full graph code in(x) = stored X_in ∪ {x}, sorted
// ascending, from the epoch's decoded index.
func (s *Snap) InCode(x graph.NodeID) ([]graph.NodeID, error) {
	in, _ := s.codesOf(x)
	return in, nil
}

// GetOut is OutCode read as Algorithm 2 does: x's base-table record,
// through its primary index and the buffer pool, on every call.
func (s *Snap) GetOut(x graph.NodeID) ([]graph.NodeID, error) {
	_, out, err := s.getCodes(x)
	return out, err
}

// GetIn is InCode read through the buffer pool (see GetOut).
func (s *Snap) GetIn(x graph.NodeID) ([]graph.NodeID, error) {
	in, _, err := s.getCodes(x)
	return in, err
}

func (s *Snap) getCodes(x graph.NodeID) (in, out []graph.NodeID, err error) {
	rec, err := s.db.codeRecord(s.base, s.g, x)
	if err != nil {
		return nil, nil, err
	}
	in, out = decodeCodes(rec)
	return insertSorted(in, x), insertSorted(out, x), nil
}

// Reaches evaluates u ⇝ v from the decoded graph codes: out(u) ∩ in(v) ≠ ∅.
func (s *Snap) Reaches(u, v graph.NodeID) (bool, error) {
	if u == v {
		return true, nil
	}
	_, ou := s.codesOf(u)
	iv, _ := s.codesOf(v)
	return IntersectNonEmpty(ou, iv), nil
}

// JoinSize estimates |T_X ⋈_{X→Y} T_Y| as Σ_{w∈W(X,Y)} |F_X(w)|·|T_Y(w)|
// (an upper bound: a pair may be covered by several centers) by scanning
// the clusters through the buffer pool. The optimizer reads the same value
// from the maintained fan signature (Signature.Pair); this scan is the
// reference it is tested against.
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

// ProjectFrom returns π_X(T_X ⋈_{X→Y} T_Y) as a set over ext(X), ranked by
// Ranks: every X-labeled node that reaches at least one Y-labeled node,
// computed as the union of the X-labeled F-subclusters over W(X, Y). The
// set is memoized per snapshot and shared — callers must not mutate it.
func (s *Snap) ProjectFrom(x, y graph.Label) (*RankSet, error) {
	return s.projection(x, y, dirF, x, s.projFrom)
}

// ProjectTo returns π_Y(T_X ⋈_{X→Y} T_Y) as a set over ext(Y), ranked by
// Ranks: every Y-labeled node reached from at least one X-labeled node
// (union of the Y-labeled T-subclusters over W(X, Y)). Memoized and shared;
// do not mutate.
func (s *Snap) ProjectTo(x, y graph.Label) (*RankSet, error) {
	return s.projection(x, y, dirT, y, s.projTo)
}

// Ranks returns the graph's rank table, which RankSets are tested through.
func (s *Snap) Ranks() Ranks { return Ranks{s.db.rank} }

// projection is the one full computation of a projection set: the cold
// start of an epoch's memo, and the reference the sets a successor epoch
// inherits (inheritProjections) are tested against.
func (s *Snap) projection(x, y graph.Label, dir byte, side graph.Label, memo map[wKey]*RankSet) (*RankSet, error) {
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
	r := s.Ranks()
	set := newRankSet(r, s.g.ExtentSize(side), nil)
	for _, w := range ws {
		for _, v := range s.subcluster(w, dir, side) {
			set.add(r, v)
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
	for _, memo := range []map[wKey]*RankSet{s.projFrom, s.projTo} {
		for _, p := range memo {
			total += p.sizeBytes()
		}
	}
	return total
}

// clearCaches drops this epoch's partner tables (cold-start benchmarks).
// The decoded index and the memoized projections stay: they hold exact
// per-snapshot values that cannot go stale within an epoch, and benchmarks
// charge their cost on first access only.
func (s *Snap) clearCaches() {
	s.pmu.Lock()
	s.ptabs, s.pNodes = nil, 0
	s.pmu.Unlock()
}
