package gdb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"

	"fastmatch/internal/graph"
	"fastmatch/internal/storage"
)

// A file-backed database persists alongside its page file a small JSON
// manifest `<path>.manifest` holding the index roots and pointers to
// in-page records for the graph itself, so Open can reattach without
// recomputing the 2-hop cover or rebuilding any index.

// manifest is the serialised database header.
type manifest struct {
	Version    int               `json:"version"`
	Labels     []string          `json:"labels"`
	BaseRoots  map[string]uint32 `json:"base_roots"` // label name → B+-tree root
	WTableRoot uint32            `json:"wtable_root"`
	ClustRoot  uint32            `json:"cluster_root"`
	NodesRID   uint64            `json:"nodes_rid"` // heap record: per-node label IDs
	EdgesRID   uint64            `json:"edges_rid"` // heap record: edge list
	NumCenters int               `json:"num_centers"`
	CoverSize  int               `json:"cover_size"`
	// BulkBuilt records that the trees were bulk-loaded and have not been
	// point-updated since, so a reopened database knows whether the dense
	// bulk layout survives. Informational for tooling; both layouts read
	// identically through OpenBTree.
	BulkBuilt bool `json:"bulk_built,omitempty"`
}

const manifestVersion = 1

func manifestPath(path string) string { return path + ".manifest" }

// Persist writes the database's manifest and graph records so Open can
// reattach later. It is called automatically by Build when Options.Path is
// set, and by Sync after edge inserts. Re-persisting an unchanged database
// is byte-stable: the graph records written last time are reused (their
// RIDs are cached on the DB), so Persist→Open→Persist leaves both the page
// file and the manifest identical. Once the new manifest is in place, the
// pages only the old one reached — those it reached that publishes
// superseded since, and the replaced graph records — are handed to the
// epoch manager for recycling.
func (db *DB) Persist(path string) error {
	s := db.mgr.Current() // stable: Build/Open call sites and Sync hold writeMu
	g := s.g
	replaced := storage.NewCow(db.pool)
	if !db.graphPersisted || db.graphDirty {
		if db.graphPersisted {
			for _, rid := range []uint64{db.nodesRID, db.edgesRID} {
				if err := replaced.Supersede(db.heap, storage.DecodeRID(rid)); err != nil {
					return err
				}
			}
		}
		// Node labels record.
		nodeRec := make([]byte, 4+4*g.NumNodes())
		binary.LittleEndian.PutUint32(nodeRec, uint32(g.NumNodes()))
		for v := 0; v < g.NumNodes(); v++ {
			binary.LittleEndian.PutUint32(nodeRec[4+4*v:], uint32(g.LabelOf(graph.NodeID(v))))
		}
		nodesRID, err := db.heap.Insert(nodeRec)
		if err != nil {
			return err
		}
		// Edge list record.
		edgeRec := make([]byte, 4+8*g.NumEdges())
		binary.LittleEndian.PutUint32(edgeRec, uint32(g.NumEdges()))
		o := 4
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			for _, w := range g.Successors(v) {
				binary.LittleEndian.PutUint32(edgeRec[o:], uint32(v))
				binary.LittleEndian.PutUint32(edgeRec[o+4:], uint32(w))
				o += 8
			}
		}
		edgesRID, err := db.heap.Insert(edgeRec)
		if err != nil {
			return err
		}
		db.nodesRID = nodesRID.Encode()
		db.edgesRID = edgesRID.Encode()
		db.graphPersisted = true
		db.graphDirty = false
		// Detach from the tail page holding the graph records so the next
		// insert batch starts a fresh page rather than rewriting this one.
		db.heap.Seal()
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}

	m := manifest{
		Version:    manifestVersion,
		Labels:     g.Labels().Names(),
		BaseRoots:  make(map[string]uint32, len(s.base)),
		WTableRoot: uint32(s.wtable.Root()),
		ClustRoot:  uint32(s.cluster.Root()),
		NodesRID:   db.nodesRID,
		EdgesRID:   db.edgesRID,
		NumCenters: s.numCenters,
		CoverSize:  s.coverSize,
		BulkBuilt:  db.bulkBuilt,
	}
	for l, bt := range s.base {
		m.BaseRoots[g.Labels().Name(l)] = uint32(bt.Root())
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	tmp := manifestPath(path) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, manifestPath(path)); err != nil {
		return err
	}
	db.path = path
	db.persisted = s.epoch
	for _, id := range replaced.Freed() {
		delete(db.born, id)
	}
	db.mgr.Defer(append(db.undurable, replaced.Freed()...))
	db.undurable = nil
	return nil
}

// Sync re-persists a file-backed database to its manifest path, making any
// ApplyEdgeInsert updates durable. It is a no-op for in-memory databases.
// Sync serialises with insert batches on the writer mutex; readers are
// unaffected.
func (db *DB) Sync() error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.path == "" {
		return nil
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return db.Persist(db.path)
}

// Open reattaches to a database previously built with a non-empty
// Options.Path. No 2-hop cover is reloaded — a built database keeps none
// either: the labeling lives in the stored graph codes, and CoverSize
// reports the persisted size. Incremental maintenance resumes from the
// stored codes, which are a valid 2-hop labeling whatever computed them; a
// manifest key naming the labeling's author is ignored like any other
// unknown key.
func Open(path string, opt Options) (*DB, error) {
	raw, err := os.ReadFile(manifestPath(path))
	if err != nil {
		return nil, fmt.Errorf("gdb: open manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("gdb: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("gdb: manifest version %d (want %d)", m.Version, manifestVersion)
	}
	if opt.PoolBytes == 0 {
		opt.PoolBytes = storage.DefaultPoolBytes
	}
	pager, err := storage.OpenFilePager(path)
	if err != nil {
		return nil, err
	}
	db := &DB{
		pager:     pager,
		pool:      storage.NewBufferPool(pager, opt.PoolBytes),
		memoBound: fastClusterCacheNodes,
	}
	db.heap = storage.NewHeapFile(db.pool)

	// Rebuild the graph from the persisted records.
	nodeRec, err := db.heap.Read(storage.DecodeRID(m.NodesRID))
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("gdb: read node record: %w", err)
	}
	edgeRec, err := db.heap.Read(storage.DecodeRID(m.EdgesRID))
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("gdb: read edge record: %w", err)
	}
	nNodes, err := recordCount(nodeRec, 4, "node")
	if err == nil {
		_, err = recordCount(edgeRec, 8, "edge")
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	gb := graph.NewBuilder()
	labelIDs := make([]graph.Label, len(m.Labels))
	for i, name := range m.Labels {
		labelIDs[i] = gb.Intern(name)
	}
	for v := 0; v < nNodes; v++ {
		li := binary.LittleEndian.Uint32(nodeRec[4+4*v:])
		if int(li) >= len(labelIDs) {
			db.Close()
			return nil, fmt.Errorf("gdb: node %d has label %d of %d", v, li, len(labelIDs))
		}
		gb.AddNodeLabel(labelIDs[li])
	}
	for o := 4; o < len(edgeRec); o += 8 {
		from := binary.LittleEndian.Uint32(edgeRec[o:])
		to := binary.LittleEndian.Uint32(edgeRec[o+4:])
		if from >= uint32(nNodes) || to >= uint32(nNodes) {
			db.Close()
			return nil, fmt.Errorf("gdb: edge %d->%d has an endpoint outside %d nodes", from, to, nNodes)
		}
		gb.AddEdge(graph.NodeID(from), graph.NodeID(to))
	}
	s := db.newSnap(gb.Build())
	s.numCenters = m.NumCenters
	s.coverSize = m.CoverSize
	s.wtable = storage.OpenBTree(db.pool, storage.PageID(m.WTableRoot))
	s.cluster = storage.OpenBTree(db.pool, storage.PageID(m.ClustRoot))
	db.path = path
	db.nodesRID = m.NodesRID
	db.edgesRID = m.EdgesRID
	db.graphPersisted = true
	db.bulkBuilt = m.BulkBuilt

	for name, root := range m.BaseRoots {
		l := s.g.Labels().Lookup(name)
		if l == graph.InvalidLabel {
			db.Close()
			return nil, fmt.Errorf("gdb: manifest base table for unknown label %q", name)
		}
		s.base[l] = storage.OpenBTree(db.pool, storage.PageID(root))
	}
	// The decoded index and the fan-signature table are derived state:
	// decode them from the stored codes and their inversion instead of
	// persisting them, so the manifest format and byte-stability are
	// untouched.
	if err := s.decode(); err != nil {
		db.Close()
		return nil, err
	}
	db.publishInitial(s)
	return db, nil
}

// recordCount returns the entry count a graph record starts with, after
// checking that the record holds exactly that many entries of width bytes.
func recordCount(rec []byte, width int, what string) (int, error) {
	if len(rec) < 4 {
		return 0, fmt.Errorf("gdb: %s record is %d bytes", what, len(rec))
	}
	n := int(binary.LittleEndian.Uint32(rec))
	if len(rec) != 4+width*n {
		return 0, fmt.Errorf("gdb: %s record is %d bytes, its count %d needs %d", what, len(rec), n, 4+width*n)
	}
	return n, nil
}
