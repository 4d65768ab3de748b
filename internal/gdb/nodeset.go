package gdb

import (
	"math/bits"

	"fastmatch/internal/graph"
)

// NodeSet is a set of node IDs of one graph: one bit per node ID, plus the
// member count. Membership is one word load, whatever the set's size, which
// is what an R-semijoin asks of a projection once per row. A graph's node
// set never changes (edge updates only add and remove edges), so a set sized
// at the build stays valid in every epoch. Sets a snapshot hands out are
// shared and never change.
type NodeSet struct {
	words []uint64
	n     int
}

// newNodeSet returns an empty set over node IDs [0, numNodes).
func newNodeSet(numNodes int) *NodeSet {
	return &NodeSet{words: make([]uint64, (numNodes+63)/64)}
}

// Has reports whether v is a member. An ID outside the graph is not.
func (s *NodeSet) Has(v graph.NodeID) bool {
	i := uint(v) / 64
	return i < uint(len(s.words)) && s.words[i]&(1<<(uint(v)%64)) != 0
}

// Len returns the number of members.
func (s *NodeSet) Len() int { return s.n }

// sizeBytes returns the memory the set's bits occupy.
func (s *NodeSet) sizeBytes() int { return 8 * len(s.words) }

// Members returns the members in ascending order, freshly allocated.
func (s *NodeSet) Members() []graph.NodeID {
	out := make([]graph.NodeID, 0, s.n)
	for i, w := range s.words {
		for ; w != 0; w &= w - 1 {
			out = append(out, graph.NodeID(64*i+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// FilterTo writes the entries of src that are members to dst (reset to
// length zero), in src's order, and returns it. dst may start where src
// starts — FilterTo(src[:0], src) filters in place: the k-th kept entry is
// written at index k, never ahead of the entry just read.
func (s *NodeSet) FilterTo(dst, src []graph.NodeID) []graph.NodeID {
	dst = dst[:0]
	for _, v := range src {
		if s.Has(v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// add makes v a member (v must be a node ID of the graph).
func (s *NodeSet) add(v graph.NodeID) {
	w, bit := &s.words[v/64], uint64(1)<<(v%64)
	if *w&bit == 0 {
		*w |= bit
		s.n++
	}
}

// remove makes v a non-member (v must be a node ID of the graph).
func (s *NodeSet) remove(v graph.NodeID) {
	w, bit := &s.words[v/64], uint64(1)<<(v%64)
	if *w&bit != 0 {
		*w &^= bit
		s.n--
	}
}

// clone returns a private copy of s.
func (s *NodeSet) clone() *NodeSet {
	return &NodeSet{words: append([]uint64(nil), s.words...), n: s.n}
}

// Ranks is the rank table of a graph's nodes: a node's position in the
// extent of its label (DB.rank). A RankSet is tested through it, so a
// caller holding many sets over one label keeps the table once.
type Ranks struct{ rank []int32 }

// Of returns v's rank.
func (r Ranks) Of(v graph.NodeID) int { return int(r.rank[v]) }

// RankSet is a set of nodes of one label: bit i stands for the label's
// i-th node, the node of rank i. It spends one bit per node of the label
// rather than of the graph, so a fused Fetch can afford one per bound
// value of a Selection, and membership is one rank load and one word load.
// Only a node of the set's label may be tested: another label's node has a
// rank that names one of this label's nodes.
type RankSet struct {
	words []uint64
	n     int
}

// RankWords returns the number of words a RankSet over a label of n nodes
// occupies.
func RankWords(n int) int { return (n + 63) / 64 }

// newRankSet returns the set of list's nodes — nodes of one label of n
// nodes, ranked by r.
func newRankSet(r Ranks, n int, list []graph.NodeID) RankSet {
	s := RankSet{words: make([]uint64, RankWords(n)), n: len(list)}
	for _, v := range list {
		i := uint(r.rank[v])
		s.words[i/64] |= 1 << (i % 64)
	}
	return s
}

// Has reports whether v, a node of the set's label, is a member; r is the
// table the set was built with.
func (s *RankSet) Has(r Ranks, v graph.NodeID) bool {
	i := uint(r.rank[v])
	return s.words[i/64]&(1<<(i%64)) != 0
}

// Len returns the number of members.
func (s *RankSet) Len() int { return s.n }

// FilterTo is NodeSet.FilterTo for a RankSet ranked by r: the entries of
// src that are members, in src's order, written to dst — which may start
// where src does. Every entry of src must be a node of the set's label.
func (s *RankSet) FilterTo(r Ranks, dst, src []graph.NodeID) []graph.NodeID {
	dst = dst[:0]
	for _, v := range src {
		if s.Has(r, v) {
			dst = append(dst, v)
		}
	}
	return dst
}
