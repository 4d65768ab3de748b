package gdb

import (
	"math/bits"

	"fastmatch/internal/graph"
)

// Ranks is the rank table of a graph's nodes: a node's position in the
// extent of its label (DB.rank). A RankSet is tested through it, so a
// caller holding many sets over one label keeps the table once.
type Ranks struct{ rank []int32 }

// RankSet is a set of nodes of one label: bit i stands for the label's
// i-th node, the node of rank i, and the member count is kept beside the
// bits. It spends one bit per node of the label rather than of the graph,
// and membership is one rank load and one word load — what an R-semijoin
// asks of a projection, and a fused Selection of a partner list's bitmap,
// once per row. A graph's node set never changes (edge updates only add
// and remove edges), so ranks never change, and a set built in one epoch
// names the same nodes in every later one, which is what lets a publish
// carry or patch it (inheritProjections). Only a node of the set's label
// may be tested: another label's node has a rank that names one of this
// label's nodes, or none. Sets a snapshot hands out are shared and never
// change.
type RankSet struct {
	words []uint64
	n     int
}

// RankWords returns the number of words a RankSet over a label of n nodes
// occupies.
func RankWords(n int) int { return (n + 63) / 64 }

// newRankSet returns the set of list's nodes — distinct nodes of one label
// of n nodes, ranked by r. A nil list gives the empty set.
func newRankSet(r Ranks, n int, list []graph.NodeID) *RankSet {
	s := &RankSet{words: make([]uint64, RankWords(n)), n: len(list)}
	for _, v := range list {
		w, bit := s.word(r, v)
		*w |= bit
	}
	return s
}

// cost is a partner table's memo-budget charge for the set, in node-ID
// units: a header the size of a partnerList's and two units a word.
func (s *RankSet) cost() int64 { return partnerListCost + 2*int64(len(s.words)) }

// sizeBytes returns the memory the set's bits occupy.
func (s *RankSet) sizeBytes() int { return 8 * len(s.words) }

// Has reports whether v, a node of the set's label, is a member; r is the
// table the set was built with.
func (s *RankSet) Has(r Ranks, v graph.NodeID) bool {
	i := uint(r.rank[v])
	return s.words[i/64]&(1<<(i%64)) != 0
}

// Len returns the number of members.
func (s *RankSet) Len() int { return s.n }

// FilterTo writes the entries of src that are members to dst (reset to
// length zero), in src's order, and returns it; r is the table the set was
// built with, and every entry of src must be a node of the set's label.
// dst may start where src starts — FilterTo(r, src[:0], src) filters in
// place: the k-th kept entry is written at index k, never ahead of the
// entry just read.
func (s *RankSet) FilterTo(r Ranks, dst, src []graph.NodeID) []graph.NodeID {
	dst = dst[:0]
	for _, v := range src {
		if s.Has(r, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// AppendCommon appends to dst the members of every set in sets — sets
// over one label whose extent is ext, so that ext[i] is the node of rank
// i — whose ranks lie in [lo, hi), in rank order, and returns it. lo must
// be a multiple of 64. It ANDs the sets' words and lists each surviving
// bit: an R-semijoin group over a whole extent with one load per set a
// word, not a rank load and a bit test per node.
func AppendCommon(dst, ext []graph.NodeID, sets []*RankSet, lo, hi int) []graph.NodeID {
	for i := lo; i < hi; i += 64 {
		w := sets[0].words[i/64]
		for _, s := range sets[1:] {
			w &= s.words[i/64]
		}
		if hi-i < 64 {
			w &= 1<<(hi-i) - 1
		}
		for ; w != 0; w &= w - 1 {
			dst = append(dst, ext[i+bits.TrailingZeros64(w)])
		}
	}
	return dst
}

// add makes v, a node of the set's label, a member.
func (s *RankSet) add(r Ranks, v graph.NodeID) {
	if w, bit := s.word(r, v); *w&bit == 0 {
		*w |= bit
		s.n++
	}
}

// remove makes v, a node of the set's label, a non-member.
func (s *RankSet) remove(r Ranks, v graph.NodeID) {
	if w, bit := s.word(r, v); *w&bit != 0 {
		*w &^= bit
		s.n--
	}
}

// word returns the word that holds v's bit, and the bit.
func (s *RankSet) word(r Ranks, v graph.NodeID) (*uint64, uint64) {
	i := uint(r.rank[v])
	return &s.words[i/64], 1 << (i % 64)
}

// clone returns a private copy of s.
func (s *RankSet) clone() *RankSet {
	return &RankSet{words: append([]uint64(nil), s.words...), n: s.n}
}
