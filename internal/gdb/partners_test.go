package gdb

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/xmark"
)

// warmReadPath reads, through s's decoded read path, every subcluster of
// every center and the partners of every node under every label pair and
// direction, so the subcluster memo, the code cache and the partner tables
// hold everything they can.
func warmReadPath(t testing.TB, s *Snap) {
	t.Helper()
	r := s.Reader()
	nl := s.g.Labels().Len()
	for x := graph.Label(0); int(x) < nl; x++ {
		for y := graph.Label(0); int(y) < nl; y++ {
			ws, err := s.Centers(x, y)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range ws {
				if _, err := r.F(w, x); err != nil {
					t.Fatal(err)
				}
				if _, err := r.T(w, y); err != nil {
					t.Fatal(err)
				}
			}
			for _, fwd := range []bool{true, false} {
				p, err := r.Partners(x, y, fwd)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range s.g.Extent(p.t.bound) {
					if _, err := p.Of(v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// coldPartners computes v's partners under k from cold's trees the long
// way: every center of W(X, Y) in v's code, its subcluster read from the
// cluster index, collected in a set.
func coldPartners(t testing.TB, cold *Snap, k partnerKey, v graph.NodeID) []graph.NodeID {
	t.Helper()
	code, dir, l := cold.OutCode, dirT, k.y
	if !k.forward {
		code, dir, l = cold.InCode, dirF, k.x
	}
	c, err := code(v)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := cold.Centers(k.x, k.y)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[graph.NodeID]struct{})
	for _, w := range ws {
		if !slices.Contains(c, w) {
			continue
		}
		nodes, err := cold.clusterLookup(w, dir, l)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range nodes {
			set[u] = struct{}{}
		}
	}
	var list []graph.NodeID
	for u := range set {
		list = append(list, u)
	}
	slices.Sort(list)
	return list
}

// checkReadPath compares everything s's decoded read path holds — every
// memoized subcluster, every cached graph code, every filled partner slot —
// with a recomputation on a cold view of the same trees, and the partner
// tables' memo-budget charge with what they hold. It returns how many slots
// and codes it compared. No reader may be filling s meanwhile.
func checkReadPath(t testing.TB, s *Snap, what string) (slots, codes int) {
	t.Helper()
	cold := coldView(s)
	s.clmu.RLock()
	cl := maps.Clone(s.clcache)
	s.clmu.RUnlock()
	for k, got := range cl {
		want, err := cold.clusterLookup(k.w, k.dir, k.l)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: memoised subcluster %+v = %v, index holds %v", what, k, got, want)
		}
	}
	for v := range s.codeCache.slots {
		got := s.codeCache.slots[v].Load()
		if got == nil {
			continue
		}
		codes++
		want, err := cold.getCodes(graph.NodeID(v))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.in, want.in) || !slices.Equal(got.out, want.out) {
			t.Fatalf("%s: cached codes of node %d = %v, base table holds %v", what, v, *got, *want)
		}
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	held := 0
	for k, tab := range s.ptabs {
		cost := partnerSlotCost * len(tab.slots)
		for i, v := range s.g.Extent(tab.bound) {
			got := tab.slots[i].Load()
			if got == nil {
				continue
			}
			slots++
			cost += got.cost()
			if want := coldPartners(t, cold, k, v); !slices.Equal(got.nodes, want) {
				t.Fatalf("%s: partner slot %+v of node %d = %v, recomputed %v", what, k, v, got.nodes, want)
			}
		}
		if tab.nodes != cost {
			t.Fatalf("%s: partner table %+v is charged %d units, its slots and lists cost %d", what, k, tab.nodes, cost)
		}
		held += cost
	}
	if s.pNodes != held {
		t.Fatalf("%s: partner tables are charged %d units in all, they cost %d", what, s.pNodes, held)
	}
	return slots, codes
}

// TestReadPathExactAfterEveryPublish: after every publish of a mixed
// insert/delete stream — on both labelings, through center births
// and deaths, W rows that empty and rows that are created — everything the
// successor epoch inherited (subclusters, graph codes, partner slots) and
// every slot it then refills equals a cold recomputation on the same trees.
func TestReadPathExactAfterEveryPublish(t *testing.T) {
	for _, l := range labelings {
		t.Run(l.name, func(t *testing.T) {
			const n, labels = 36, 6
			g := randomGraph(5, n, 30, labels)
			db := buildLabeled(t, g, l.opt)
			first, release := db.Pin()
			warmReadPath(t, first)
			rows := wRowSizes(t, first)
			release()

			rng := rand.New(rand.NewSource(17))
			cur := g
			var births, deaths, emptied, created, codesKept, slotsKept int
			for step := 0; step < 200; step++ {
				next, b, d := mixedOp(t, db, rng, cur, step)
				cur, births, deaths = next, births+b, deaths+d
				s, release := db.Pin()
				slots, codes := checkReadPath(t, s, "inherited")
				codesKept, slotsKept = codesKept+codes, slotsKept+slots
				warmReadPath(t, s)
				if slots, codes := checkReadPath(t, s, "refilled"); slots != 2*labels*n || codes != n {
					t.Fatalf("step %d: warm epoch holds %d partner slots and %d codes, want %d and %d", step, slots, codes, 2*labels*n, n)
				}
				now := wRowSizes(t, s)
				release()
				e, c := wRowMoves(rows, now)
				emptied, created, rows = emptied+e, created+c, now
			}
			checkIndexConsistent(t, db, cur)
			if births == 0 || deaths == 0 || emptied == 0 || created == 0 {
				t.Fatalf("stream covered %d center births, %d deaths, %d W rows emptied, %d created; want all > 0",
					births, deaths, emptied, created)
			}
			if codesKept == 0 || codesKept >= 200*n || slotsKept == 0 || slotsKept >= 200*2*labels*n {
				t.Fatalf("200 successors inherited %d cached codes of %d and %d partner slots of %d; want some, not all",
					codesKept, 200*n, slotsKept, 200*2*labels*n)
			}
			if _, _, resets := db.DecodedMemoStats(); resets != 0 {
				t.Fatalf("memos reset %d times on a %d-node graph", resets, n)
			}
		})
	}
}

// TestPartnerTableConcurrentFill: eight readers filling one cold table at
// once all return the recomputed lists, every slot is charged once, and a
// second pass hits every slot.
func TestPartnerTableConcurrentFill(t *testing.T) {
	g := randomGraph(23, 400, 900, 3)
	db := mustBuild(t, g, Options{})
	s, release := db.Pin()
	defer release()
	x, y := g.Labels().Lookup("A"), g.Labels().Lookup("B")
	ext := g.Extent(x)

	const readers = 8
	lists := make([][][]graph.NodeID, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := s.Reader().Partners(x, y, true)
			if err != nil {
				t.Error(err)
				return
			}
			lists[i] = make([][]graph.NodeID, len(ext))
			for j := range ext {
				j = (j + i*len(ext)/readers) % len(ext) // start apart, collide in the middle
				if lists[i][j], err = p.Of(ext[j]); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	cold, k := coldView(s), partnerKey{x, y, true}
	nonEmpty := 0
	for j, v := range ext {
		want := coldPartners(t, cold, k, v)
		for i := range lists {
			if !slices.Equal(lists[i][j], want) {
				t.Fatalf("reader %d: partners of node %d = %v, recomputed %v", i, v, lists[i][j], want)
			}
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no A node reaches a B node; the test proves nothing")
	}
	held, tables, _ := db.DecodedMemoStats()
	r := s.Reader()
	p, err := r.Partners(x, y, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ext {
		if _, err := p.Of(v); err != nil {
			t.Fatal(err)
		}
	}
	if r.CenterHits != int64(len(ext)) || r.Misses != 0 {
		t.Fatalf("second pass: %d slot hits, %d misses over %d nodes", r.CenterHits, r.Misses, len(ext))
	}
	if after, _, _ := db.DecodedMemoStats(); after != held || tables != 1 {
		t.Fatalf("second pass moved the memo accounting %d -> %d (%d tables)", held, after, tables)
	}
	// Charged once per slot: the slot array, a partnerList per non-empty
	// slot, and the lists that are unions rather than a memoised subcluster.
	shared := make(map[*graph.NodeID]bool)
	for _, nodes := range s.clcache {
		if len(nodes) > 0 {
			shared[&nodes[0]] = true
		}
	}
	want, unions := partnerSlotCost*len(ext)+partnerListCost*nonEmpty, 0
	for i := range p.t.slots {
		l := p.t.slots[i].Load()
		if len(l.nodes) > 0 && l.owned == shared[&l.nodes[0]] {
			t.Fatalf("slot %d: owned = %v, aliases a memoised subcluster = %v", i, l.owned, !l.owned)
		}
		if l.owned {
			want += cap(l.nodes)
			unions++
		}
	}
	if unions == 0 || unions == nonEmpty {
		t.Fatalf("%d of %d lists are unions; want both kinds", unions, nonEmpty)
	}
	if s.pNodes != want || p.t.nodes != want {
		t.Fatalf("table charged %d units (epoch: %d), its slots, lists and %d unions cost %d", p.t.nodes, s.pNodes, unions, want)
	}
}

// TestPartnersOfForeignLabel: a value that does not carry the table's bound
// label gets the computed list, never another node's slot.
func TestPartnersOfForeignLabel(t *testing.T) {
	g := randomGraph(23, 400, 900, 3)
	db := mustBuild(t, g, Options{})
	s, release := db.Pin()
	defer release()
	x, y, z := g.Labels().Lookup("A"), g.Labels().Lookup("B"), g.Labels().Lookup("C")
	for _, fwd := range []bool{true, false} {
		r := s.Reader()
		p, err := r.Partners(x, y, fwd)
		if err != nil {
			t.Fatal(err)
		}
		cold, k := coldView(s), partnerKey{x, y, fwd}
		nonEmpty := 0
		for _, v := range g.Extent(z) {
			got, err := p.Of(v)
			if err != nil {
				t.Fatal(err)
			}
			want := coldPartners(t, cold, k, v)
			if !slices.Equal(got, want) {
				t.Fatalf("forward=%v: partners of C node %d = %v, recomputed %v", fwd, v, got, want)
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 0 {
			t.Fatalf("forward=%v: no C node has a partner; the test proves nothing", fwd)
		}
		if r.CenterHits+r.CenterMisses != 0 {
			t.Fatalf("forward=%v: foreign values touched %d slots", fwd, r.CenterHits+r.CenterMisses)
		}
		for i := range p.t.slots {
			if p.t.slots[i].Load() != nil {
				t.Fatalf("forward=%v: a foreign value filled slot %d", fwd, i)
			}
		}
	}
}

// BenchmarkReadPathParallel measures the two per-row reads of the served
// path — a partner-table slot and a reachability test from cached codes —
// from GOMAXPROCS goroutines at once on a warm XMark snapshot (run it with
// -cpu 1,2: per-op time must not grow with the second core). The hit path
// must allocate nothing.
func BenchmarkReadPathParallel(b *testing.B) {
	g := xmark.Generate(xmark.Config{Nodes: 20000, Seed: 1}).Graph
	db, err := Build(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	s, release := db.Pin()
	defer release()
	x, y := g.Labels().Lookup("person"), g.Labels().Lookup("interest")
	ext, targets := g.Extent(x), g.Extent(y)
	warm, err := s.Reader().Partners(x, y, true)
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range ext {
		if _, err := warm.Of(v); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Reaches(v, targets[i%len(targets)]); err != nil {
			b.Fatal(err)
		}
	}
	reads := map[string]func(r *Reader, p Partners, i int) error{
		"Partners": func(_ *Reader, p Partners, i int) error {
			_, err := p.Of(ext[i%len(ext)])
			return err
		},
		"Reaches": func(r *Reader, _ Partners, i int) error {
			_, err := r.Reaches(ext[i%len(ext)], targets[i%len(targets)])
			return err
		},
	}
	for _, name := range []string{"Partners", "Reaches"} {
		read := reads[name]
		b.Run(name, func(b *testing.B) {
			i := 0
			if allocs := testing.AllocsPerRun(len(ext), func() { _ = read(warm.r, warm, i); i++ }); allocs != 0 {
				b.Fatalf("hit path allocates %.1f times per read", allocs)
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				r := s.Reader()
				p, err := r.Partners(x, y, true)
				if err != nil {
					b.Error(err)
					return
				}
				for i := 0; pb.Next(); i++ {
					if err := read(r, p, i); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
