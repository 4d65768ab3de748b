package server

import (
	"context"
	"errors"
	"net/http"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
)

// InsertRequest is the JSON body of POST /insert: a batch of directed
// edges, each a [from, to] node-ID pair, applied in order.
type InsertRequest struct {
	Edges [][2]graph.NodeID `json:"edges"`
}

// InsertResult aggregates one insert batch's effect on the index.
type InsertResult struct {
	// Applied counts edges that actually changed the graph (non-duplicates).
	Applied int `json:"applied"`
	// Duplicates counts edges that already existed (no-ops).
	Duplicates int `json:"duplicates"`
	// LabelEntries is the total 2-hop label entries the cover gained.
	LabelEntries int `json:"label_entries"`
	// NewCenters counts nodes that became centers of the R-join index.
	NewCenters int `json:"new_centers"`
	// NewWPairs counts W-table entries extended with a center.
	NewWPairs int `json:"new_w_pairs"`
}

// InsertEdges applies a batch of edge inserts through the database's
// incremental maintenance path. The batch builds one private copy-on-write
// snapshot and publishes it as a single new epoch: concurrent queries keep
// the epoch they pinned, so they observe either no edge of the batch or
// (once they start after the publish) all of it — never a torn
// intermediate state, and never blocked behind the writer. The plan cache
// needs no invalidation: its keys carry the snapshot epoch, so plans
// costed against the superseded snapshot stop matching and age out of the
// LRU on their own.
//
// A malformed edge (endpoint out of range) aborts the batch at that edge
// with ErrBadQuery; earlier edges stay applied (and published), and the
// returned result counts them.
func (s *Server) InsertEdges(ctx context.Context, edges [][2]graph.NodeID) (InsertResult, error) {
	var res InsertResult
	if s.db.Closed() {
		return res, gdb.ErrClosed
	}
	if err := ctx.Err(); err != nil {
		s.met.recordError(err)
		return res, err
	}
	stats, err := s.db.ApplyEdgeInserts(edges)
	for _, st := range stats {
		if st.Duplicate {
			res.Duplicates++
			continue
		}
		res.Applied++
		res.LabelEntries += st.LabelEntries
		res.NewWPairs += st.NewWPairs
		if st.NewCenter {
			res.NewCenters++
		}
	}
	s.met.edgeInserts.Add(int64(res.Applied))
	s.met.insertDuplicates.Add(int64(res.Duplicates))
	s.met.insertLabelEntries.Add(int64(res.LabelEntries))
	if err != nil {
		s.met.insertErrors.Add(1)
		if errors.Is(err, gdb.ErrBadInsert) {
			err = badQuery(err)
		}
		return res, err
	}
	return res, nil
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("missing \"edges\""))
		return
	}
	res, err := s.InsertEdges(r.Context(), req.Edges)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
