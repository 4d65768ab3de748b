package fastmatch

import (
	"sync"

	"fastmatch/internal/reach"
	"fastmatch/internal/twohop"
)

// ReachabilityOracle answers u ⇝ v questions over a graph that changes by
// edge insertions and deletions, maintaining a reachability labeling
// incrementally (the update problem of the paper's reference [24]; deletes
// use over-delete/re-insert repair). Unlike Engine — which is built over a
// snapshot and repairs its persistent index through
// InsertEdge/DeleteEdge — the oracle keeps only the labeling and answers
// reachability; pattern matching goes through an Engine.
//
// Methods are safe for concurrent use.
type ReachabilityOracle struct {
	mu  sync.Mutex
	inc *reach.Incremental
}

// NewReachabilityOracle builds the initial 2-hop labeling for g. Later
// edge insertions and deletions go through InsertEdge/DeleteEdge and do
// not affect g itself.
func NewReachabilityOracle(g *Graph) *ReachabilityOracle {
	return &ReachabilityOracle{inc: reach.NewIncremental(twohop.Compute(g, twohop.Options{}))}
}

// Reaches reports u ⇝ v under all insertions and deletions so far.
func (o *ReachabilityOracle) Reaches(u, v NodeID) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inc.Reaches(u, v)
}

// InsertEdge adds the edge u→v and repairs the labeling, returning the
// label entries added (nil when the edge creates no new reachability).
func (o *ReachabilityOracle) InsertEdge(u, v NodeID) []CoverDelta {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inc.InsertEdge(u, v)
}

// DeleteEdge removes one occurrence of the edge u→v and repairs the
// labeling by over-delete/re-insert, returning the label entries removed
// (Removed true) and re-added. Deleting an absent edge is a no-op
// returning nil.
func (o *ReachabilityOracle) DeleteEdge(u, v NodeID) []CoverDelta {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inc.DeleteEdge(u, v)
}

// LabelEntries returns the current labeling size |H|.
func (o *ReachabilityOracle) LabelEntries() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inc.Size()
}
