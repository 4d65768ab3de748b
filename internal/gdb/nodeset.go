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
