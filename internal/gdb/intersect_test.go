package gdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fastmatch/internal/graph"
)

// refIntersect is the obviously-correct linear-merge reference the galloping
// kernel is checked against.
func refIntersect(a, b []graph.NodeID) []graph.NodeID {
	out := []graph.NodeID{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// sortedUnique draws n distinct values from [0, span) in ascending order.
func sortedUnique(rng *rand.Rand, n, span int) []graph.NodeID {
	if n > span {
		n = span
	}
	seen := make(map[int]bool, n)
	out := make([]graph.NodeID, 0, n)
	for len(seen) < n {
		v := rng.Intn(span)
		if !seen[v] {
			seen[v] = true
		}
	}
	for v := 0; v < span; v++ {
		if seen[v] {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// TestIntersectMatchesReference drives the galloping and merge paths across
// size ratios (balanced through 1:10000, forcing both kernels) and overlap
// regimes, comparing every result against the linear reference.
func TestIntersectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cases := []struct{ na, nb, span int }{
		{0, 0, 10}, {0, 5, 10}, {1, 1, 4},
		{8, 8, 40}, {100, 100, 300}, // balanced: merge path
		{4, 200, 400}, {3, 3000, 9000}, // skewed: galloping path
		{1, 10000, 10000}, // extreme skew, dense big side
		{50, 1600, 1700},  // high overlap under galloping
		{64, 64, 64},      // identical universes
	}
	for _, tc := range cases {
		for trial := 0; trial < 20; trial++ {
			a := sortedUnique(rng, tc.na, tc.span)
			b := sortedUnique(rng, tc.nb, tc.span)
			want := refIntersect(a, b)
			for _, pair := range [][2][]graph.NodeID{{a, b}, {b, a}} {
				got := Intersect(pair[0], pair[1])
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("Intersect(na=%d nb=%d span=%d trial=%d) = %v, want %v",
						tc.na, tc.nb, tc.span, trial, got, want)
				}
				if ne := IntersectNonEmpty(pair[0], pair[1]); ne != (len(want) > 0) {
					t.Fatalf("IntersectNonEmpty(na=%d nb=%d span=%d trial=%d) = %v, want %v",
						tc.na, tc.nb, tc.span, trial, ne, len(want) > 0)
				}
			}
		}
	}
}

// TestGallopSearch pins the search primitive: it must return the first
// index >= from whose value is >= v, plus whether it equals v.
func TestGallopSearch(t *testing.T) {
	s := []graph.NodeID{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	for from := 0; from <= len(s); from++ {
		for v := graph.NodeID(0); v <= 22; v++ {
			gotIdx, gotOK := gallopSearch(s, from, v)
			wantIdx := from
			for wantIdx < len(s) && s[wantIdx] < v {
				wantIdx++
			}
			wantOK := wantIdx < len(s) && s[wantIdx] == v
			if gotIdx != wantIdx || gotOK != wantOK {
				t.Fatalf("gallopSearch(from=%d, v=%d) = (%d,%v), want (%d,%v)",
					from, v, gotIdx, gotOK, wantIdx, wantOK)
			}
		}
	}
}

// intersectInputs builds the three benchmark regimes from the acceptance
// criteria: balanced same-size lists, 1:1000 skew (the getCenters shape —
// a node's out-list probed against a huge W(X,Y)), and disjoint ranges.
func intersectInputs(kind string) (a, b []graph.NodeID) {
	rng := rand.New(rand.NewSource(1))
	switch kind {
	case "balanced":
		return sortedUnique(rng, 4096, 16384), sortedUnique(rng, 4096, 16384)
	case "skewed":
		return sortedUnique(rng, 16, 1<<20), sortedUnique(rng, 16000, 1<<20)
	case "disjoint":
		a = sortedUnique(rng, 2048, 8192)
		b = sortedUnique(rng, 2048, 8192)
		for i := range b {
			b[i] += 1 << 20
		}
		return a, b
	}
	panic(kind)
}

func BenchmarkIntersect(b *testing.B) {
	for _, kind := range []string{"balanced", "skewed", "disjoint"} {
		x, y := intersectInputs(kind)
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n += len(Intersect(x, y))
			}
			_ = n
		})
	}
}

func BenchmarkIntersectNonEmpty(b *testing.B) {
	for _, kind := range []string{"balanced", "skewed", "disjoint"} {
		x, y := intersectInputs(kind)
		b.Run(kind, func(b *testing.B) {
			var hit bool
			for i := 0; i < b.N; i++ {
				hit = IntersectNonEmpty(x, y)
			}
			_ = hit
		})
	}
}

// BenchmarkIntersectLinearReference is the pre-galloping baseline for
// bench-compare: refIntersect is the old linear merge verbatim.
func BenchmarkIntersectLinearReference(b *testing.B) {
	for _, kind := range []string{"balanced", "skewed", "disjoint"} {
		x, y := intersectInputs(kind)
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n += len(refIntersect(x, y))
			}
			_ = n
		})
	}
}

// FuzzLeapfrogMultiwayIntersect drives two k-way folds against a naive
// membership-count oracle over k sorted unique lists. The first is of
// IntersectTo — sort the lists by length, then intersect pairwise with
// buffer reuse. The second is a fused Fetch's: the first list is a shared
// partner list that must not be written, and each later one is, by a
// base-3 digit of data[0]>>2, a Selection's list (IntersectTo), a semijoin
// projection built by add as Snap.projection builds one, or a Selection's
// bitmap of its list built by newRankSet — both filtering by
// RankSet.FilterTo, under a rank that reverses the node order; the first
// filter writes to fresh space and the rest shrink that list in place.
// Every set's Has, Len and members are checked against its list. (The
// name is kept from the retired leapfrog join, which folded its lists the
// same way.)
func FuzzLeapfrogMultiwayIntersect(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0, 0, 1, 1})
	f.Add([]byte{3, 10, 20, 30, 40, 50, 1, 1, 1})
	f.Add([]byte{2})
	f.Add([]byte{0x17, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15})
	f.Add([]byte{0xfb, 0, 0, 0, 0, 3, 3, 3, 3, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		k := int(data[0]%4) + 2
		// Deal the remaining bytes round-robin into k lists, then turn each
		// list's bytes into strictly increasing values (sorted, duplicate-free
		// — the iterator contract).
		lists := make([][]graph.NodeID, k)
		for i, d := range data[1:] {
			lists[i%k] = append(lists[i%k], graph.NodeID(d))
		}
		for li, deltas := range lists {
			var cur graph.NodeID
			out := make([]graph.NodeID, 0, len(deltas))
			for _, d := range deltas {
				cur += d%16 + 1
				out = append(out, cur)
			}
			lists[li] = out
		}

		counts := map[graph.NodeID]int{}
		for _, l := range lists {
			for _, v := range l {
				counts[v]++
			}
		}
		want := []graph.NodeID{}
		for _, v := range lists[0] {
			if counts[v] == k {
				want = append(want, v)
			}
		}

		sorted := append([][]graph.NodeID(nil), lists...)
		sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })
		cur := IntersectTo(nil, sorted[0], sorted[1])
		var buf []graph.NodeID
		for _, l := range sorted[2:] {
			next := IntersectTo(buf, cur, l)
			cur, buf = next, cur
		}
		if !reflect.DeepEqual(cur, want) && !(len(cur) == 0 && len(want) == 0) {
			t.Fatalf("fold of %v = %v, oracle %v", lists, cur, want)
		}

		numNodes := 1
		for _, l := range lists {
			if len(l) > 0 {
				numNodes = max(numNodes, int(l[len(l)-1])+1)
			}
		}
		// Every node is of one label, ranked in reverse, so a RankSet's bit
		// order is the opposite of the lists'.
		ranks, ext := Ranks{make([]int32, numNodes)}, make([]graph.NodeID, numNodes)
		for v := range ranks.rank {
			ranks.rank[v], ext[v] = int32(numNodes-1-v), graph.NodeID(v)
		}
		shared := append([]graph.NodeID(nil), lists[0]...)
		cur, owned := shared, false
		for i, l := range lists[1:] {
			dst := cur[:0]
			if !owned {
				dst, owned = make([]graph.NodeID, 0, len(cur)), true
			}
			in := make(map[graph.NodeID]bool, len(l))
			for _, v := range l {
				in[v] = true
			}
			var set *RankSet
			switch int(data[0]>>2) / []int{1, 3, 9, 27}[i] % 3 {
			case 0:
				cur = IntersectTo(dst, cur, l)
				continue
			case 1:
				set = newRankSet(ranks, numNodes, nil)
				for _, v := range l {
					set.add(ranks, v)
				}
			case 2:
				set = newRankSet(ranks, numNodes, l)
			}
			got := set.FilterTo(ranks, nil, ext)
			if set.Len() != len(l) || len(set.words) != RankWords(numNodes) || !reflect.DeepEqual(got, l) && len(l) > 0 {
				t.Fatalf("set of %v: Len %d, %d words, members %v", l, set.Len(), len(set.words), got)
			}
			for _, v := range ext {
				if set.Has(ranks, v) != in[v] {
					t.Fatalf("set of %v: Has(%d) = %v", l, v, !in[v])
				}
			}
			cur = set.FilterTo(ranks, dst, cur)
		}
		if !reflect.DeepEqual(cur, want) && !(len(cur) == 0 && len(want) == 0) {
			t.Fatalf("fused fold of %v (filters by %d) = %v, oracle %v", lists, data[0]>>2, cur, want)
		}
		if !reflect.DeepEqual(shared, lists[0]) && len(shared) > 0 {
			t.Fatalf("the fused fold wrote the shared list: %v, was %v", shared, lists[0])
		}
	})
}

// TestRankSetBoundaries pins a set's edges: ranks 0, 63, 64 and the last
// rank, over extents of one node, one word exactly filled, a partial last
// word and three words, and the empty set. The graph's two labels
// interleave — one holds the even IDs, the other the odd — so a node's
// rank is not its ID. Built by add (twice a member) or by newRankSet, the
// set has the same bits, and Has, Len, sizeBytes and FilterTo — fresh and
// in place — agree with the member list; a clone emptied by remove (twice
// a member) leaves the original as it was.
func TestRankSetBoundaries(t *testing.T) {
	for _, tc := range []struct {
		n     int
		ranks []int
	}{
		{1, nil}, {1, []int{0}},
		{64, nil}, {64, []int{0, 63}},
		{65, []int{63, 64}}, {65, []int{64}},
		{129, nil}, {129, []int{0, 63, 64, 128}}, {129, []int{127, 128}},
	} {
		r := Ranks{make([]int32, 2*tc.n)}
		for i := range tc.n {
			r.rank[2*i], r.rank[2*i+1] = int32(i), int32(i)
		}
		for odd := range 2 {
			ext := make([]graph.NodeID, tc.n)
			for i := range ext {
				ext[i] = graph.NodeID(2*i + odd)
			}
			var members []graph.NodeID
			for _, i := range tc.ranks {
				members = append(members, ext[i])
			}
			what := fmt.Sprintf("|ext|=%d members %v", tc.n, members)
			s := newRankSet(r, tc.n, nil)
			for _, v := range members {
				s.add(r, v)
				s.add(r, v) // a second add is no new member
			}
			if !slices.Equal(s.words, newRankSet(r, tc.n, members).words) {
				t.Fatalf("%s: add built %x, newRankSet %x", what, s.words, newRankSet(r, tc.n, members).words)
			}
			if want := 8 * ((tc.n + 63) / 64); s.sizeBytes() != want {
				t.Fatalf("%s: sizeBytes %d, want %d", what, s.sizeBytes(), want)
			}
			if got := s.FilterTo(r, nil, ext); s.Len() != len(members) || !slices.Equal(got, members) {
				t.Fatalf("%s: Len %d, FilterTo(ext) %v", what, s.Len(), got)
			}
			for _, v := range ext {
				if want := slices.Contains(members, v); s.Has(r, v) != want {
					t.Fatalf("%s: Has(%d) = %v", what, v, !want)
				}
			}
			all := slices.Clone(ext)
			if got := s.FilterTo(r, all[:0], all); !slices.Equal(got, members) {
				t.Fatalf("%s: FilterTo in place = %v", what, got)
			}
			c := s.clone()
			for _, v := range members {
				c.remove(r, v)
				c.remove(r, v)
			}
			if got := s.FilterTo(r, nil, ext); c.Len() != 0 || len(c.FilterTo(r, nil, ext)) != 0 || s.Len() != len(members) || !slices.Equal(got, members) {
				t.Fatalf("%s: emptied clone holds %d, original %d: %v", what, c.Len(), s.Len(), got)
			}
		}
	}
}

// TestIntersectToInPlace pins the one overlap IntersectTo supports: a
// destination that starts where an input starts, cur = IntersectTo(cur[:0],
// cur, other), which is how a Fetch shrinks a list it owns by one filter
// after another. Over random pairs — balanced, and skewed past gallopRatio
// with cur as the short side and as the long one, so that the merge branch
// and both roles in the gallop branch write over their own input — the
// in-place result is Intersect's and the other input is untouched.
func TestIntersectToInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		na, nb := 1+rng.Intn(40), 1+rng.Intn(40)
		switch trial % 3 {
		case 1:
			nb = na * (gallopRatio + rng.Intn(gallopRatio))
		case 2:
			na = nb * (gallopRatio + rng.Intn(gallopRatio))
		}
		span := max(na, nb) * (1 + rng.Intn(3))
		cur, other := sortedUnique(rng, na, span), sortedUnique(rng, nb, span)
		want := Intersect(cur, other)
		otherBefore := append([]graph.NodeID(nil), other...)
		curLen := len(cur)

		got := IntersectTo(cur[:0], cur, other)
		if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
			t.Fatalf("trial %d (%d vs %d entries): in place %v, Intersect %v", trial, curLen, len(other), got, want)
		}
		if len(got) > 0 && &got[0] != &cur[0] {
			t.Fatalf("trial %d: the result left the destination's storage", trial)
		}
		if !reflect.DeepEqual(other, otherBefore) {
			t.Fatalf("trial %d: the other input was written", trial)
		}
	}
}

func ExampleIntersect() {
	a := []graph.NodeID{1, 3, 5, 7}
	b := []graph.NodeID{3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	fmt.Println(Intersect(a, b))
	// Output: [3 5 7]
}
