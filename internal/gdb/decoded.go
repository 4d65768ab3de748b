package gdb

import (
	"encoding/binary"
	"fmt"
	"slices"

	"fastmatch/internal/graph"
	"fastmatch/internal/storage"
)

// The decoded index is every node's full graph codes and every center's
// subclusters, decoded once per epoch into immutable arrays chunked by
// chunkSize node IDs: what the paper's Section 3.3 working cache holds once
// warm. A reader loads from it with no atomic and no lock. A publish shares
// every chunk holding no node or center the batch rewrote and rebuilds the
// rest (snapWriter.inheritDecoded). Only the counted-I/O reference path
// (GetF/GetT, GetIn/GetOut) still reads the pages.

// codeSource is what the inversion and the code arrays are built from: the
// stored compact codes, which omit the node itself. It is the cover at
// Build and the base tables' records at Open.
type codeSource interface {
	In(v graph.NodeID) []graph.NodeID
	Out(v graph.NodeID) []graph.NodeID
}

// codeList is a CSR of graph codes over consecutive node IDs: the node at
// index i has in code ents[off[2i]:off[2i+1]] and out code
// ents[off[2i+1]:off[2i+2]]. The index is the node ID for a list over the
// whole graph, and its low chunkBits for a chunk of the decoded codes.
type codeList struct {
	off  []int32
	ents []graph.NodeID
}

func newCodeList(nodes, entries int) *codeList {
	return &codeList{off: make([]int32, 1, 2*nodes+1), ents: make([]graph.NodeID, 0, entries)}
}

func (c *codeList) In(i graph.NodeID) []graph.NodeID {
	lo, hi := c.off[2*i], c.off[2*i+1]
	return c.ents[lo:hi:hi]
}

func (c *codeList) Out(i graph.NodeID) []graph.NodeID {
	lo, hi := c.off[2*i+1], c.off[2*i+2]
	return c.ents[lo:hi:hi]
}

// addRecord appends the next node's codes from its base-table record
// (encodeCodes).
func (c *codeList) addRecord(rec []byte) {
	mid := 8 + 4*int(binary.LittleEndian.Uint32(rec))
	for _, part := range [][]byte{rec[8:mid], rec[mid:]} {
		for o := 0; o < len(part); o += 4 {
			c.ents = append(c.ents, graph.NodeID(binary.LittleEndian.Uint32(part[o:])))
		}
		c.off = append(c.off, int32(len(c.ents)))
	}
}

// appendWith appends the ascending set code ∪ {v} to dst.
func appendWith(dst, code []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i, found := slices.BinarySearch(code, v)
	dst = append(dst, code[:i]...)
	if !found {
		dst = append(dst, v)
	}
	return append(dst, code[i:]...)
}

func (c *codeList) bytes() int { return 4 * (len(c.off) + len(c.ents)) }

// clusterChunk holds the subclusters of chunkSize consecutive node IDs as
// one CSR: center lo+i has subclusters keys[first[i]:first[i+1]], ascending
// by slotKey, and subcluster j holds members[off[j]:off[j+1]]. A node that
// is no center has none.
type clusterChunk struct {
	first   []int32
	keys    []uint32
	off     []int32
	members []graph.NodeID
}

// slotKey packs a subcluster's (dir, label) so that keys ascend in the
// cluster index's order: dir F before T, then label.
func slotKey(dir byte, l graph.Label) uint32 { return uint32(dir)<<31 | uint32(l) }

func splitKey(key uint32) (dir byte, l graph.Label) {
	return byte(key >> 31), graph.Label(key &^ (1 << 31))
}

// newClusterChunk returns an empty chunk with room for subs subclusters
// holding members node IDs.
func newClusterChunk(subs, members int) *clusterChunk {
	return &clusterChunk{
		first:   make([]int32, 1, chunkSize+1),
		keys:    make([]uint32, 0, subs),
		off:     make([]int32, 1, subs+1),
		members: make([]graph.NodeID, 0, members),
	}
}

// add appends a subcluster of the current center.
func (c *clusterChunk) add(key uint32, nodes []graph.NodeID) {
	c.keys = append(c.keys, key)
	c.members = append(c.members, nodes...)
	c.off = append(c.off, int32(len(c.members)))
}

// next closes the current center's subclusters and moves to the next node.
func (c *clusterChunk) next() { c.first = append(c.first, int32(len(c.keys))) }

// get returns subcluster key of center index i, nil when empty.
func (c *clusterChunk) get(i int, key uint32) []graph.NodeID {
	lo, hi := int(c.first[i]), int(c.first[i+1])
	j, ok := slices.BinarySearch(c.keys[lo:hi], key)
	if !ok {
		return nil
	}
	return c.list(int32(lo + j))
}

// list returns subcluster j's members.
func (c *clusterChunk) list(j int32) []graph.NodeID {
	a, b := c.off[j], c.off[j+1]
	return c.members[a:b:b]
}

func (c *clusterChunk) bytes() int {
	return 4 * (len(c.first) + len(c.keys) + len(c.off) + len(c.members))
}

// chunkRange returns the node IDs chunk ci of an n-node array covers.
func chunkRange(ci, n int) (lo, hi int) {
	lo = ci << chunkBits
	return lo, min(n, lo+chunkSize)
}

// newCodeChunks decodes the full codes of g's n nodes from src.
func newCodeChunks(n int, src codeSource) []*codeList {
	chunks := make([]*codeList, (n+chunkMask)>>chunkBits)
	for ci := range chunks {
		lo, hi := chunkRange(ci, n)
		entries := 2 * (hi - lo)
		for v := graph.NodeID(lo); int(v) < hi; v++ {
			entries += len(src.In(v)) + len(src.Out(v))
		}
		chunks[ci] = codeChunk(ci, n, entries, func(v graph.NodeID) ([]graph.NodeID, []graph.NodeID) { return src.In(v), src.Out(v) })
	}
	return chunks
}

// codeChunk builds chunk ci of an n-node code array: node v's full codes
// in ∪ {v} and out ∪ {v}, where code(v) returns in and out with or without
// v. entries sizes the chunk.
func codeChunk(ci, n, entries int, code func(v graph.NodeID) (in, out []graph.NodeID)) *codeList {
	lo, hi := chunkRange(ci, n)
	c := newCodeList(hi-lo, entries)
	for v := graph.NodeID(lo); int(v) < hi; v++ {
		in, out := code(v)
		for _, l := range [][]graph.NodeID{in, out} {
			c.ents = appendWith(c.ents, l, v)
			c.off = append(c.off, int32(len(c.ents)))
		}
	}
	return c
}

// storedCodes returns every node's stored compact codes, in and out: its
// decoded full codes minus the node itself. No stored code holds its own
// node — twohop.Compute and reach.Incremental both keep the compact self
// convention, and so did every file the retired pll backend wrote
// (TestStoredCodesFromDecoded) — so these are exactly the base tables'
// records, which DB.storedCodes would read back through the buffer pool.
// The lists share no memory with s or, within their capacity, with each
// other, so the caller may edit them in place.
func (s *Snap) storedCodes() (in, out [][]graph.NodeID) {
	n := s.g.NumNodes()
	in, out = make([][]graph.NodeID, n), make([][]graph.NodeID, n)
	ents := make([]graph.NodeID, 0, s.coverSize)
	for v := graph.NodeID(0); int(v) < n; v++ {
		fin, fout := s.codesOf(v)
		ents, in[v] = appendWithout(ents, fin, v)
		ents, out[v] = appendWithout(ents, fout, v)
	}
	return in, out
}

// appendWithout appends code, which holds v, without v to ents and returns
// ents and the appended list, capped at its length.
func appendWithout(ents, code []graph.NodeID, v graph.NodeID) (_, list []graph.NodeID) {
	lo := len(ents)
	i, _ := slices.BinarySearch(code, v)
	ents = append(append(ents, code[:i]...), code[i+1:]...)
	return ents, ents[lo:len(ents):len(ents)]
}

// codesOf returns x's full codes in(x) and out(x), ascending; x must be a
// node of the epoch's graph. The slices are shared and must not be
// mutated.
func (s *Snap) codesOf(x graph.NodeID) (in, out []graph.NodeID) {
	c, i := s.codes[x>>chunkBits], x&chunkMask
	return c.In(i), c.Out(i)
}

// subcluster returns the l-labeled dir-side subcluster of center w,
// ascending; nil when empty or w is no center. The slice is shared and
// must not be mutated.
func (s *Snap) subcluster(w graph.NodeID, dir byte, l graph.Label) []graph.NodeID {
	if uint(w) >= uint(s.g.NumNodes()) {
		return nil
	}
	return s.clusters[w>>chunkBits].get(int(w&chunkMask), slotKey(dir, l))
}

// decode fills s's decoded arrays and fan signature from the stored codes
// of its base tables: Open's reattachment, and the cold decode the tests
// compare an epoch's arrays with.
func (s *Snap) decode() error {
	src, err := s.db.storedCodes(s.g, s.base, s.coverSize)
	if err != nil {
		return err
	}
	s.codes = newCodeChunks(s.g.NumNodes(), src)
	s.clusters, s.sig = invertCover(s.g, src).clusters(s.g.NumNodes())
	return nil
}

// storedCodes reads every node's stored codes from the base tables into
// one list over the whole graph; entries sizes it. Each table is scanned
// once for its record IDs, rather than probed once per node.
func (db *DB) storedCodes(g *graph.Graph, base map[graph.Label]*storage.BTree, entries int) (*codeList, error) {
	n := g.NumNodes()
	rids := make([]uint64, n)
	found := 0
	for _, tree := range base {
		err := tree.Scan(nodeKey(0), func(key []byte, val uint64) bool {
			if v := int(binary.BigEndian.Uint32(key)); v < n && rids[v] == 0 {
				rids[v] = val + 1 // 0 marks a node not seen yet
				found++
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	if found != n {
		return nil, fmt.Errorf("gdb: base tables hold %d of %d nodes", found, n)
	}
	list := newCodeList(n, entries)
	for _, rid := range rids {
		rec, err := db.heap.Read(storage.DecodeRID(rid - 1))
		if err != nil {
			return nil, err
		}
		list.addRecord(rec)
	}
	return list, nil
}

// codeRecord reads node x's base-table record through the buffer pool.
func (db *DB) codeRecord(base map[graph.Label]*storage.BTree, g *graph.Graph, x graph.NodeID) ([]byte, error) {
	rid, err := db.codeRID(base, g, x)
	if err != nil {
		return nil, err
	}
	return db.heap.Read(rid)
}

// codeRID looks node x's base-table record up in its primary index.
func (db *DB) codeRID(base map[graph.Label]*storage.BTree, g *graph.Graph, x graph.NodeID) (storage.RID, error) {
	if db.closed.Load() {
		return storage.RID{}, ErrClosed
	}
	rid, ok, err := base[g.LabelOf(x)].Get(nodeKey(x))
	if err != nil {
		return storage.RID{}, err
	}
	if !ok {
		return storage.RID{}, fmt.Errorf("gdb: node %d missing from base table", x)
	}
	return storage.DecodeRID(rid), nil
}

// inheritDecoded gives next cur's decoded arrays on new chunk directories:
// a chunk holding no node whose codes the batch rewrote and no center whose
// subclusters it rewrote is shared, and the others are rebuilt from cur's
// chunk and the batch's new values. Those are what the batch wrote to
// next's trees, so the arrays match the trees even after a torn batch. It
// returns the bytes the directories and the rebuilt chunks occupy.
func (w *snapWriter) inheritDecoded(cur, next *Snap) int {
	n := cur.g.NumNodes()
	next.codes, next.clusters = slices.Clone(cur.codes), slices.Clone(cur.clusters)
	copied := dirEntry * (len(next.codes) + len(next.clusters))

	for _, ci := range chunksOf(w.codes) {
		next.codes[ci] = codeChunk(ci, n, len(cur.codes[ci].ents)+64, func(v graph.NodeID) ([]graph.NodeID, []graph.NodeID) {
			if nc, ok := w.codes[v]; ok {
				return nc.in, nc.out
			}
			return cur.codesOf(v)
		})
		copied += next.codes[ci].bytes()
	}

	for _, ci := range chunksOf(w.clusters) {
		lo, hi := chunkRange(ci, n)
		old := cur.clusters[ci]
		c := newClusterChunk(len(old.keys)+16, len(old.members)+64)
		for i := 0; i < hi-lo; i++ {
			if _, ok := w.clusters[graph.NodeID(lo+i)]; !ok {
				for j := old.first[i]; j < old.first[i+1]; j++ {
					c.add(old.keys[j], old.list(j))
				}
			} else {
				keys, lists := w.subclusters(graph.NodeID(lo + i))
				for j, key := range keys {
					c.add(key, lists[j])
				}
			}
			c.next()
		}
		next.clusters[ci] = c
		copied += c.bytes()
	}
	return copied
}

// chunksOf returns the chunks holding the map's node IDs, ascending.
func chunksOf[V any](m map[graph.NodeID]V) []int {
	cs := make([]int, 0, len(m))
	for v := range m {
		cs = append(cs, int(v>>chunkBits))
	}
	slices.Sort(cs)
	return slices.Compact(cs)
}
