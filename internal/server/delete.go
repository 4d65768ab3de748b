package server

import (
	"context"
	"errors"
	"net/http"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
)

// DeleteRequest is the JSON body of POST /delete: a batch of directed
// edges, each a [from, to] node-ID pair, removed in order.
type DeleteRequest struct {
	Edges [][2]graph.NodeID `json:"edges"`
}

// DeleteResult aggregates one delete batch's effect on the index.
type DeleteResult struct {
	// Applied counts edges that were present and got removed.
	Applied int `json:"applied"`
	// Noops counts edges that were absent (including an edge listed twice
	// in the batch — the first occurrence removes it).
	Noops int `json:"noops"`
	// RemovedLabelEntries / AddedLabelEntries are the stale 2-hop label
	// entries the repair removed and the entries it re-added for pairs
	// still reachable without the deleted edges.
	RemovedLabelEntries int `json:"removed_label_entries"`
	AddedLabelEntries   int `json:"added_label_entries"`
	// DroppedCenters counts centers retired because their subclusters
	// emptied; NewCenters the centers the re-cover elected.
	DroppedCenters int `json:"dropped_centers"`
	NewCenters     int `json:"new_centers"`
	// RemovedWPairs / NewWPairs count W-table entries that lost / gained a
	// center.
	RemovedWPairs int `json:"removed_w_pairs"`
	NewWPairs     int `json:"new_w_pairs"`
}

// DeleteEdges applies a batch of edge deletes through the database's
// incremental repair path. Like inserts, the batch builds one private
// copy-on-write snapshot and publishes it as a single new epoch — unless
// it changed nothing (every edge absent), in which case no epoch is
// published. Concurrent queries keep the epoch they pinned and observe
// either no delete of the batch or all of them.
//
// A malformed edge (endpoint out of range) aborts the batch at that edge
// with ErrBadQuery; earlier edges stay applied (and published), and the
// returned result counts them.
func (s *Server) DeleteEdges(ctx context.Context, edges [][2]graph.NodeID) (DeleteResult, error) {
	var res DeleteResult
	if s.db.Closed() {
		return res, gdb.ErrClosed
	}
	if err := ctx.Err(); err != nil {
		s.met.recordError(err)
		return res, err
	}
	stats, err := s.db.ApplyEdgeDeletes(edges)
	for _, st := range stats {
		if st.Missing {
			res.Noops++
			continue
		}
		res.Applied++
		res.RemovedLabelEntries += st.RemovedLabelEntries
		res.AddedLabelEntries += st.AddedLabelEntries
		res.DroppedCenters += st.DroppedCenters
		res.NewCenters += st.NewCenters
		res.RemovedWPairs += st.RemovedWPairs
		res.NewWPairs += st.NewWPairs
	}
	s.met.edgeDeletes.Add(int64(res.Applied))
	s.met.deleteNoops.Add(int64(res.Noops))
	s.met.deleteLabelEntries.Add(int64(res.RemovedLabelEntries + res.AddedLabelEntries))
	if err != nil {
		s.met.deleteErrors.Add(1)
		if errors.Is(err, gdb.ErrBadDelete) {
			err = badQuery(err)
		}
		return res, err
	}
	return res, nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("missing \"edges\""))
		return
	}
	res, err := s.DeleteEdges(r.Context(), req.Edges)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
