package gdb

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/xmark"
)

// warmReadPath reads, through s's decoded read path, the partners of every
// node under every label pair and direction, and their bitmaps, so the
// partner tables hold everything they can.
func warmReadPath(t testing.TB, s *Snap) {
	t.Helper()
	r := s.Reader()
	nl := s.g.Labels().Len()
	for x := graph.Label(0); int(x) < nl; x++ {
		for y := graph.Label(0); int(y) < nl; y++ {
			for _, fwd := range []bool{true, false} {
				p, err := r.Partners(x, y, fwd)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range s.g.Extent(p.t.bound) {
					list, err := p.Of(v)
					if err != nil {
						t.Fatal(err)
					}
					p.Bitmap(v, list)
				}
			}
		}
	}
}

// warmFiltered fills, for every partner table of s, the filtered table of
// its lists by one semijoin group on their label and the table chained on
// that by a second group, every slot.
func warmFiltered(t testing.TB, s *Snap) {
	t.Helper()
	r := s.Reader()
	nl := graph.Label(s.g.Labels().Len())
	for x := graph.Label(0); x < nl; x++ {
		for y := graph.Label(0); y < nl; y++ {
			for _, fwd := range []bool{true, false} {
				p, err := r.Partners(x, y, fwd)
				if err != nil {
					t.Fatal(err)
				}
				l := target(p.t.key)
				if p, err = p.Semijoin([][2]graph.Label{{l, (l + 1) % nl}}, true); err == nil {
					p, err = p.Semijoin([][2]graph.Label{{(l + 2) % nl, l}}, false)
				}
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

// filteredTables returns how many filtered tables s holds, and fails
// unless each reads the very projection sets s holds: a publish that
// patched one must not have carried it.
func filteredTables(t testing.TB, s *Snap, what string) int {
	t.Helper()
	s.pmu.Lock()
	defer s.pmu.Unlock()
	n := 0
	for k, tab := range s.ptabs {
		if tab.base == nil {
			continue
		}
		if !sameProjections(s, tab) {
			t.Fatalf("%s: filtered table %+v reads projections the epoch no longer holds", what, k)
		}
		n++
	}
	return n
}

// heldBitmaps returns how many bitmap slots s's partner tables hold.
func heldBitmaps(s *Snap) int {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	var n int64
	for _, tab := range s.ptabs {
		filled, _ := tab.sets.held()
		n += filled
	}
	return int(n)
}

// checkBitmap fails unless set, the bitmap slot of table tab's node v, is
// the bitmap of its list — want, recomputed cold — and that list is long
// enough to have one.
func checkBitmap(t testing.TB, s *Snap, tab *partnerTable, v graph.NodeID, set *RankSet, want []graph.NodeID, what string) {
	t.Helper()
	if len(want) < tab.minList {
		t.Fatalf("%s: table %+v holds a bitmap of node %d's %d-entry list, below the size rule %d", what, tab.key, v, len(want), tab.minList)
	}
	target := tab.key.y
	if !tab.key.forward {
		target = tab.key.x
	}
	cold := newRankSet(s.Ranks(), s.g.ExtentSize(target), want)
	if !slices.Equal(set.words, cold.words) || set.Len() != cold.Len() {
		t.Fatalf("%s: table %+v, node %d: bitmap %x of %d members, recomputed %x of %d", what, tab.key, v, set.words, set.Len(), cold.words, cold.Len())
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

// checkReadPath compares everything s's decoded read path holds with a
// cold recomputation on the same trees: the decoded index in full
// (checkDecoded), every filled partner slot and bitmap slot, every filled
// filtered slot (checkFiltered), and the tables' chunk charges with what
// they hold. It returns how many partner-table list slots it compared. No
// reader may be filling s meanwhile.
func checkReadPath(t testing.TB, s *Snap, what string) (slots int) {
	t.Helper()
	cold := coldView(t, s)
	checkDecoded(t, s, cold, what)
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for k, tab := range s.ptabs {
		if tab.base != nil {
			checkFiltered(t, s, cold, tab, what)
			continue
		}
		cost := int64(partnerSlotCost * tab.n)
		for i, v := range s.g.Extent(tab.bound) {
			got, set := tab.slots.load(i), tab.sets.load(i)
			if got == nil && set == nil {
				continue
			}
			want := coldPartners(t, cold, k, v)
			if set != nil {
				cost += set.cost()
				checkBitmap(t, s, tab, v, set, want, what)
			}
			if got == nil {
				continue
			}
			slots++
			cost += tab.cost(got)
			if !slices.Equal(got.nodes, want) {
				t.Fatalf("%s: partner slot %+v of node %d = %v, recomputed %v", what, k, v, got.nodes, want)
			}
		}
		if c := tab.charge(); c != cost {
			t.Fatalf("%s: partner table %+v is charged %d units, its slots and lists cost %d", what, k, c, cost)
		}
	}
	return slots
}

// checkFiltered compares every filled slot of filtered table tab with its
// base list recomputed cold, cut by every group of its chain with the
// projections recomputed cold, and with that list's length, and the
// table's charge with what it holds.
func checkFiltered(t testing.TB, s, cold *Snap, tab *partnerTable, what string) {
	t.Helper()
	var chain []*partnerTable
	for c := tab; c.base != nil; c = c.base {
		chain = append(chain, c)
	}
	root := partnerKey{x: tab.key.x, y: tab.key.y, forward: tab.key.forward}
	cost := int64(partnerSlotCost * tab.n)
	for i, v := range s.g.Extent(tab.bound) {
		got := tab.slots.load(i)
		if got == nil {
			continue
		}
		want := coldPartners(t, cold, root, v)
		full := len(want)
		for j := len(chain) - 1; j >= 0; j-- {
			for _, wk := range chain[j].projKeys {
				project := cold.ProjectTo
				if chain[j].out {
					project = cold.ProjectFrom
				}
				set, err := project(wk.x, wk.y)
				if err != nil {
					t.Fatal(err)
				}
				want = set.FilterTo(cold.Ranks(), nil, want)
			}
		}
		if !slices.Equal(got.nodes, want) || int(got.full) != full {
			t.Fatalf("%s: filtered slot %+v of node %d = %v of %d, recomputed %v of %d", what, tab.key, v, got.nodes, got.full, want, full)
		}
		cost += tab.cost(got)
	}
	if c := tab.charge(); c != cost {
		t.Fatalf("%s: filtered table %+v is charged %d units, its slots and lists cost %d", what, tab.key, c, cost)
	}
}

// TestReadPathExactAfterEveryPublish: after every publish of a mixed
// insert/delete stream — on both labelings, through center births
// and deaths, W rows that empty and rows that are created — everything the
// successor epoch inherited (its decoded index, partner slots and their
// bitmaps, filtered slots) and every slot it then refills equals a cold
// recomputation on the same trees, the decoded index's chunks were shared
// by some publishes and rebuilt by others, some bitmaps were carried and
// some dropped, and some filtered tables were carried and some dropped —
// every one carried reading the very projections the successor holds.
func TestReadPathExactAfterEveryPublish(t *testing.T) {
	for _, l := range labelings {
		t.Run(l.name, func(t *testing.T) {
			const n, labels = 36, 6
			g := randomGraph(5, n, 30, labels)
			db := buildLabeled(t, g, l.opt)
			first, release := db.Pin()
			warmReadPath(t, first)
			warmFiltered(t, first)
			rows := wRowSizes(t, first)
			prev := first
			release()

			rng := rand.New(rand.NewSource(17))
			cur := g
			var births, deaths, emptied, created, slotsKept int
			var codesShared, clustersShared, bitmapsKept, bitmapsDropped, filteredKept, filteredDropped int
			warmBitmaps, warmFilteredTables := heldBitmaps(first), filteredTables(t, first, "warm")
			for step := 0; step < 200; step++ {
				next, b, d := mixedOp(t, db, rng, cur, step)
				cur, births, deaths = next, births+b, deaths+d
				s, release := db.Pin()
				slotsKept += checkReadPath(t, s, "inherited")
				kept, fkept := heldBitmaps(s), filteredTables(t, s, "inherited")
				filteredKept, filteredDropped = filteredKept+fkept, filteredDropped+warmFilteredTables-fkept
				bitmapsKept, bitmapsDropped = bitmapsKept+kept, bitmapsDropped+warmBitmaps-kept
				if s.codes[0] == prev.codes[0] {
					codesShared++
				}
				if s.clusters[0] == prev.clusters[0] {
					clustersShared++
				}
				warmReadPath(t, s)
				warmFiltered(t, s)
				if slots := checkReadPath(t, s, "refilled"); slots != 2*labels*n {
					t.Fatalf("step %d: warm epoch holds %d partner slots, want %d", step, slots, 2*labels*n)
				}
				warmBitmaps, warmFilteredTables = heldBitmaps(s), filteredTables(t, s, "refilled")
				now := wRowSizes(t, s)
				prev = s
				release()
				e, c := wRowMoves(rows, now)
				emptied, created, rows = emptied+e, created+c, now
			}
			checkIndexConsistent(t, db, cur)
			if births == 0 || deaths == 0 || emptied == 0 || created == 0 {
				t.Fatalf("stream covered %d center births, %d deaths, %d W rows emptied, %d created; want all > 0",
					births, deaths, emptied, created)
			}
			// The graph fits one chunk: a publish shares it exactly when the
			// batch rewrote no code (no subcluster) in it.
			if codesShared == 0 || codesShared == 200 || clustersShared == 0 || clustersShared == 200 {
				t.Fatalf("200 successors shared the code chunk %d times and the cluster chunk %d times; want some, not all",
					codesShared, clustersShared)
			}
			if slotsKept == 0 || slotsKept >= 200*2*labels*n {
				t.Fatalf("200 successors inherited %d partner slots of %d; want some, not all", slotsKept, 200*2*labels*n)
			}
			if bitmapsKept == 0 || bitmapsDropped == 0 {
				t.Fatalf("200 successors carried %d bitmaps and dropped %d; want some of each", bitmapsKept, bitmapsDropped)
			}
			if filteredKept == 0 || filteredDropped == 0 {
				t.Fatalf("200 successors carried %d filtered tables and dropped %d; want some of each", filteredKept, filteredDropped)
			}
			if resets := db.DecodedMemoStats().Resets; resets != 0 {
				t.Fatalf("memos reset %d times on a %d-node graph", resets, n)
			}
		})
	}
}

// TestPartnerSlotsSurviveTargetGrowth: an insert that grows one center's
// T-subcluster and nothing else carries every partner table and clears
// exactly the slots whose list can have changed: the new member's own
// (its code changed) and, in the forward tables whose target is that
// subcluster's label, the members of the center's F-subcluster on the
// bound side — the center itself included, through its self entry.
func TestPartnerSlotsSurviveTargetGrowth(t *testing.T) {
	// a0..a3 → c → b0..b2 and a4..a6 → d → b3..b4 make c and d the only
	// centers; b5 is isolated until c → b5 puts c into in(b5) alone.
	b := graph.NewBuilder()
	node := func(l string, n int) []graph.NodeID {
		vs := make([]graph.NodeID, n)
		for i := range vs {
			vs[i] = b.AddNode(l)
		}
		return vs
	}
	as, bs := node("A", 7), node("B", 6)
	c, d := b.AddNode("C"), b.AddNode("C")
	for i, a := range as {
		if i < 4 {
			b.AddEdge(a, c)
		} else {
			b.AddEdge(a, d)
		}
	}
	for i, v := range bs[:5] {
		if i < 3 {
			b.AddEdge(c, v)
		} else {
			b.AddEdge(d, v)
		}
	}
	g := b.Build()
	db := mustBuild(t, g, Options{})
	cur, releaseCur := db.Pin()
	defer releaseCur()
	warmReadPath(t, cur)
	nl := g.Labels().Len()
	if slots := checkReadPath(t, cur, "warm"); slots != 2*nl*g.NumNodes() {
		t.Fatalf("warm epoch holds %d slots, want %d", slots, 2*nl*g.NumNodes())
	}
	kept0, dropped0 := db.PartnerSlotStats()

	newB := bs[5]
	st, err := db.ApplyEdgeInsert(c, newB)
	if err != nil {
		t.Fatal(err)
	}
	if st.LabelEntries != 1 || st.NewCenter || st.NewWPairs != 0 {
		t.Fatalf("insert %+v: want one label entry (c into in(b5)), no center or W change", st)
	}
	next, releaseNext := db.Pin()
	defer releaseNext()
	bl := g.Labels().Lookup("B")
	var want, kept int
	for k, t0 := range cur.ptabs {
		t1 := next.ptabs[k]
		if t1 == nil {
			t.Fatalf("table %+v was not carried", k)
		}
		var owners []graph.NodeID
		if k.forward && k.y == bl {
			if owners, err = next.GetF(c, k.x); err != nil {
				t.Fatal(err)
			}
		}
		for i, v := range g.Extent(t0.bound) {
			stale := v == newB || slices.Contains(owners, v)
			if got := t1.slots.load(i); (got == nil) != stale {
				t.Fatalf("table %+v, node %d: carried %v, want the slot cleared = %v", k, v, got, stale)
			}
			if stale {
				want++
			} else {
				kept++
			}
		}
	}
	// F_A(c) = {a0..a3} in A→B, F_C(c) = {c} in C→B, and b5 in the 2·nl
	// tables bound to B.
	if want != 4+1+2*nl {
		t.Fatalf("cleared %d slots, want %d", want, 4+1+2*nl)
	}
	if kept1, dropped1 := db.PartnerSlotStats(); kept1-kept0 != int64(kept) || dropped1-dropped0 != int64(want) {
		t.Fatalf("PartnerSlotStats moved by %d kept and %d dropped, want %d and %d", kept1-kept0, dropped1-dropped0, kept, want)
	}
	checkReadPath(t, next, "inherited")
	warmReadPath(t, next)
	checkReadPath(t, next, "refilled")
}

// TestPartnerChargeWhileReadersFillDuringPublish: readers pinned to the
// old epoch fill its partner tables while a batch publishes; each carried
// table's chunks must be charged for exactly what they hold: a copied chunk
// for the slots and lists it copied, not for what the old chunk held once
// the copy was done.
func TestPartnerChargeWhileReadersFillDuringPublish(t *testing.T) {
	g := randomGraph(31, 300, 500, 3)
	db := mustBuild(t, g, Options{})
	rng := rand.New(rand.NewSource(5))
	cur := g
	nl := g.Labels().Len()
	for round := 0; round < 12; round++ {
		s, release := db.Pin()
		// Every table exists before the publish, so it is carried.
		for x := graph.Label(0); int(x) < nl; x++ {
			for y := graph.Label(0); int(y) < nl; y++ {
				for _, fwd := range []bool{true, false} {
					if _, err := s.Reader().Partners(x, y, fwd); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		const readers = 3
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := s.Reader()
				for x := graph.Label(0); int(x) < nl; x++ {
					for y := graph.Label(0); int(y) < nl; y++ {
						p, err := r.Partners(x, y, (int(x)+i)%2 == 0)
						if err != nil {
							t.Error(err)
							return
						}
						ext := s.g.Extent(p.t.bound)
						for j := range ext {
							if _, err := p.Of(ext[(j+i*len(ext)/readers)%len(ext)]); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}
			}(i)
		}
		cur, _, _ = mixedOp(t, db, rng, cur, round)
		wg.Wait()
		release()
		if t.Failed() {
			return
		}
		next, release := db.Pin()
		checkReadPath(t, next, "carried while filled")
		release()
	}
}

// TestPartnerTableConcurrentFill: eight readers filling one cold table —
// its lists and their bitmaps — at once all return the recomputed lists
// and the same bitmap per slot, every slot and bitmap is charged once, and
// a second pass hits every slot.
func TestPartnerTableConcurrentFill(t *testing.T) {
	g := randomGraph(23, 400, 900, 3)
	db := mustBuild(t, g, Options{})
	s, release := db.Pin()
	defer release()
	x, y := g.Labels().Lookup("A"), g.Labels().Lookup("B")
	ext := g.Extent(x)

	const readers = 8
	lists := make([][][]graph.NodeID, readers)
	sets := make([][]*RankSet, readers)
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
			lists[i], sets[i] = make([][]graph.NodeID, len(ext)), make([]*RankSet, len(ext))
			for j := range ext {
				j = (j + i*len(ext)/readers) % len(ext) // start apart, collide in the middle
				if lists[i][j], err = p.Of(ext[j]); err != nil {
					t.Error(err)
					return
				}
				sets[i][j] = p.Bitmap(ext[j], lists[i][j])
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	cold, k := coldView(t, s), partnerKey{x: x, y: y, forward: true}
	s.pmu.Lock()
	tab := s.ptabs[k]
	s.pmu.Unlock()
	nonEmpty, bitmaps := 0, 0
	for j, v := range ext {
		want := coldPartners(t, cold, k, v)
		for i := range lists {
			if !slices.Equal(lists[i][j], want) {
				t.Fatalf("reader %d: partners of node %d = %v, recomputed %v", i, v, lists[i][j], want)
			}
			if sets[i][j] != sets[0][j] {
				t.Fatalf("readers 0 and %d got different bitmaps of node %d's list", i, v)
			}
		}
		if len(want) > 0 {
			nonEmpty++
		}
		if set := sets[0][j]; set != nil {
			checkBitmap(t, s, tab, v, set, want, "concurrent fill")
			bitmaps++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no A node reaches a B node; the test proves nothing")
	}
	if bitmaps == 0 || bitmaps == nonEmpty {
		t.Fatalf("%d of %d lists have a bitmap; want some, not all", bitmaps, nonEmpty)
	}
	memo := db.DecodedMemoStats()
	held, tables := memo.Nodes, memo.Tables
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
	if r.CenterHits != int64(len(ext)) || r.CenterMisses != 0 {
		t.Fatalf("second pass: %d slot hits, %d misses over %d nodes", r.CenterHits, r.CenterMisses, len(ext))
	}
	if after := db.DecodedMemoStats().Nodes; after != held || tables != 1 {
		t.Fatalf("second pass moved the memo accounting %d -> %d (%d tables)", held, after, tables)
	}
	// Charged once per slot: the slot array, a partnerList per non-empty
	// slot, the lists that are unions rather than a decoded subcluster,
	// and the bitmaps.
	shared := make(map[*graph.NodeID]bool)
	for w := graph.NodeID(0); int(w) < g.NumNodes(); w++ {
		_, lists := subclusters(s, w)
		for _, nodes := range lists {
			shared[&nodes[0]] = true
		}
	}
	want, unions := partnerSlotCost*len(ext)+partnerListCost*nonEmpty, 0
	for i := range ext {
		l := p.t.slots.load(i)
		if len(l.nodes) > 0 && l.owned == shared[&l.nodes[0]] {
			t.Fatalf("slot %d: owned = %v, aliases a decoded subcluster = %v", i, l.owned, !l.owned)
		}
		if l.owned {
			want += cap(l.nodes)
			unions++
		}
		if set := p.t.sets.load(i); set != nil {
			want += int(set.cost())
		}
	}
	if unions == 0 || unions == nonEmpty {
		t.Fatalf("%d of %d lists are unions; want both kinds", unions, nonEmpty)
	}
	if s.pNodes != want || p.t.charge() != int64(want) {
		t.Fatalf("table charged %d units (epoch: %d), its slots, lists, %d unions and %d bitmaps cost %d", p.t.charge(), s.pNodes, unions, bitmaps, want)
	}

	// Eight readers filling one cold filtered table of the same lists —
	// the B partners that reach an A node — at once: one list per slot,
	// the recomputed one, and each slot charged once.
	group := [][2]graph.Label{{y, x}}
	proj, err := s.ProjectFrom(y, x)
	if err != nil {
		t.Fatal(err)
	}
	fl, full := make([][][]graph.NodeID, readers), make([][]int, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := s.Reader().Partners(x, y, true)
			if err == nil {
				p, err = p.Semijoin(group, true)
			}
			if err != nil {
				t.Error(err)
				return
			}
			fl[i], full[i] = make([][]graph.NodeID, len(ext)), make([]int, len(ext))
			for j := range ext {
				j = (j + i*len(ext)/readers) % len(ext)
				if fl[i][j], full[i][j], err = p.Lookup(ext[j]); err != nil {
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
	f, err := r.Partners(x, y, true)
	if err == nil {
		f, err = f.Semijoin(group, true)
	}
	if err != nil {
		t.Fatal(err)
	}
	fwant, dropped, kept := partnerSlotCost*len(ext), 0, 0
	for j, v := range ext {
		base := coldPartners(t, cold, k, v)
		cut := proj.FilterTo(s.Ranks(), nil, base)
		for i := range fl {
			if !slices.Equal(fl[i][j], cut) || full[i][j] != len(base) {
				t.Fatalf("reader %d: filtered partners of node %d = %v of %d, recomputed %v of %d", i, v, fl[i][j], full[i][j], cut, len(base))
			}
			if len(cut) > 0 && &fl[i][j][0] != &fl[0][j][0] {
				t.Fatalf("readers 0 and %d got different lists of node %d", i, v)
			}
		}
		l := f.t.slots.load(j)
		switch {
		case len(cut) == 0:
		case len(cut) == len(base):
			kept++
			if l != p.t.slots.load(j) {
				t.Fatalf("node %d: a list that lost nothing is not its base's", v)
			}
		default:
			dropped++
			fwant += partnerListCost + cap(l.nodes)
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("%d filtered lists kept all and %d lost some; want both", kept, dropped)
	}
	if f.t.charge() != int64(fwant) || s.pNodes != want+fwant {
		t.Fatalf("filtered table charged %d units (epoch: %d more), its slots and %d owned lists cost %d", f.t.charge(), s.pNodes-want, dropped, fwant)
	}
	if memo := db.DecodedMemoStats(); memo.FilteredTables != 1 || memo.FilteredLists != len(ext) || memo.FilteredBytes != 4*(fwant-partnerSlotCost*len(ext)) {
		t.Fatalf("memo stats %+v, want one filtered table of %d lists", memo, len(ext))
	}
}

// TestPartnersOfForeignLabel: a value that does not carry the table's bound
// label gets the computed list, never another node's slot — through a
// partner table and through a filtered table of its lists alike.
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
		cold, k := coldView(t, s), partnerKey{x: x, y: y, forward: fwd}
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
		for i := 0; i < p.t.n; i++ {
			if p.t.slots.load(i) != nil {
				t.Fatalf("forward=%v: a foreign value filled slot %d", fwd, i)
			}
		}
		// The same through a filtered table of those lists: each foreign
		// list is cut down cold, and no filtered slot is filled.
		l := target(k)
		f, err := p.Semijoin([][2]graph.Label{{l, z}}, true)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := s.ProjectFrom(l, z)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range g.Extent(z) {
			base := coldPartners(t, cold, k, v)
			got, full, err := f.Lookup(v)
			if want := proj.FilterTo(s.Ranks(), nil, base); err != nil || !slices.Equal(got, want) || full != len(base) ||
				!slices.Equal(f.Lists().Of(v), want) {
				t.Fatalf("forward=%v: filtered partners of C node %d = %v of %d, recomputed %v of %d (%v)", fwd, v, got, full, want, len(base), err)
			}
		}
		if filled, _ := f.t.slots.held(); filled != 0 || r.CenterHits+r.CenterMisses != 0 {
			t.Fatalf("forward=%v: foreign values filled %d filtered slots and touched %d", fwd, filled, r.CenterHits+r.CenterMisses)
		}
	}
}

// BenchmarkReadPathParallel measures the two per-row reads of the served
// path — a partner-table slot and a reachability test from decoded codes —
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
