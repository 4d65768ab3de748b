package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestBufferPoolConcurrentReaders hammers one pool from many goroutines
// reading a shared set of pages, checking content integrity under eviction
// pressure. Run with -race.
func TestBufferPoolConcurrentReaders(t *testing.T) {
	p := NewMemPager()
	bp := NewBufferPool(p, 64*PageSize) // 64 frames for 256 pages
	const nPages = 256
	ids := make([]PageID, nPages)
	for i := 0; i < nPages; i++ {
		f, id, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i)
		f.Data()[1] = byte(i >> 8)
		bp.Unpin(f, true)
		ids[i] = id
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for it := 0; it < 2000; it++ {
				i := (seed*7919 + it*31) % nPages
				f, err := bp.Fetch(ids[i])
				if err != nil {
					errs <- err
					return
				}
				got := int(f.Data()[0]) | int(f.Data()[1])<<8
				if got != i {
					errs <- fmt.Errorf("page %d read back %d", i, got)
					bp.Unpin(f, false)
					return
				}
				bp.Unpin(f, false)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if bp.Stats().Logical() == 0 {
		t.Fatal("expected logical I/O")
	}
}

// TestScratchHeapRecyclesPages checks that Release returns a scratch heap's
// pages to the free list and that NewPage reuses them instead of growing
// the pager.
func TestScratchHeapRecyclesPages(t *testing.T) {
	p := NewMemPager()
	bp := NewBufferPool(p, 64*PageSize)
	h := NewScratchHeap(bp)
	// Mix of slotted and overflow-chain records.
	for i := 0; i < 10; i++ {
		if _, err := h.Insert(make([]byte, maxInline)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Insert(make([]byte, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	grown := p.NumPages()
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	// A second scratch round must reuse the freed pages: no pager growth.
	h2 := NewScratchHeap(bp)
	for i := 0; i < 10; i++ {
		rid, err := h2.Insert(make([]byte, maxInline))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h2.Read(rid); err != nil {
			t.Fatal(err)
		}
	}
	if p.NumPages() > grown {
		t.Fatalf("pager grew from %d to %d pages despite free list", grown, p.NumPages())
	}
	if err := h2.Release(); err != nil {
		t.Fatal(err)
	}
	// Freeing a pinned page must fail.
	f, id, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.FreePage(id); err == nil {
		t.Fatal("FreePage of pinned page should fail")
	}
	bp.Unpin(f, false)
	if err := bp.FreePage(id); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScratchHeaps runs parallel single-writer scratch heaps over
// one shared pool, simulating concurrent query spills.
func TestConcurrentScratchHeaps(t *testing.T) {
	p := NewMemPager()
	bp := NewBufferPool(p, 32*PageSize)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			h := NewScratchHeap(bp)
			defer h.Release()
			for it := 0; it < 50; it++ {
				rec := make([]byte, 100+seed*13+it)
				for j := range rec {
					rec[j] = byte(seed)
				}
				rid, err := h.Insert(rec)
				if err != nil {
					errs <- err
					return
				}
				got, err := h.Read(rid)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(rec) || got[0] != byte(seed) {
					errs <- fmt.Errorf("seed %d: record corrupted", seed)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestResizeUnderLoad shrinks and regrows the pool while readers pin and
// unpin through it: every read must succeed (16 frames are enough for 8
// readers holding one pin each), and content must survive the evictions.
// Run with -race.
func TestResizeUnderLoad(t *testing.T) {
	p := NewMemPager()
	bp := NewBufferPool(p, 4096*PageSize)
	const nPages = 512
	ids := make([]PageID, nPages)
	for i := range ids {
		f, id, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0], f.Data()[1] = byte(i), byte(i>>8)
		bp.Unpin(f, true)
		ids[i] = id
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (seed*7919 + it*31) % nPages
				f, err := bp.Fetch(ids[i])
				if err != nil {
					errs <- err
					return
				}
				got := int(f.Data()[0]) | int(f.Data()[1])<<8
				bp.Unpin(f, false)
				if got != i {
					errs <- fmt.Errorf("page %d read back %d", i, got)
					return
				}
			}
		}(w)
	}
	for round := 0; round < 20; round++ {
		for _, frames := range []int{16, 4096, 64} {
			if err := bp.Resize(frames * PageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if bp.Capacity() != 64 || bp.lruLen() > 64 {
		t.Fatalf("capacity %d, %d unpinned frames resident, want 64 and at most 64", bp.Capacity(), bp.lruLen())
	}
}

// TestBTreeConcurrentGets: readers probing one tree through a pool too
// small for it reload its nodes again and again, so the node check the
// pool runs once per load (Frame.checked) races with hits on the same
// frame. Every probe must find its value. Run with -race.
func TestBTreeConcurrentGets(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), 16*PageSize)
	bt, err := NewBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 4000
	for i := uint32(0); i < nKeys; i++ {
		if err := bt.Insert(key32(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for it := 0; it < 500; it++ {
				k := uint32((seed*7919 + it*131) % nKeys)
				v, ok, err := bt.Get(key32(k))
				if err != nil || !ok || v != uint64(k) {
					errs <- fmt.Errorf("Get(%d) = %d, %v, %v", k, v, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPoolIsOneLRU: every page competes for every frame, and a shrink keeps
// the most recently unpinned pages. 33 resident pages with even IDs fit a
// 64-frame pool, so a second pass over them misses nothing; a pool that
// split its frames by page ID would crowd them into a part too small for
// them.
func TestPoolIsOneLRU(t *testing.T) {
	p := NewMemPager()
	const nPages = 33
	for i := 0; i < 2*nPages; i++ {
		if _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(p, 64*PageSize)
	touch := func(id PageID) {
		f, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, false)
	}
	for i := 0; i < nPages; i++ {
		touch(PageID(2 * i))
	}
	// The second pass visits the pages out of ID order, so recency differs
	// from it: order[nPages-1] is the most recently unpinned.
	order := make([]PageID, nPages)
	for i := range order {
		order[i] = PageID(2 * (i * 7 % nPages))
	}
	bp.ResetStats()
	for _, id := range order {
		touch(id)
	}
	if st := bp.Stats(); st.Misses != 0 || st.Hits != nPages {
		t.Fatalf("second pass over %d resident pages: %v, want %d hits and no miss", nPages, st, nPages)
	}

	const n = 12
	if err := bp.Resize(n * PageSize); err != nil {
		t.Fatal(err)
	}
	if bp.Capacity() != n || bp.lruLen() != n {
		t.Fatalf("after shrinking to %d frames: capacity %d, %d resident", n, bp.Capacity(), bp.lruLen())
	}
	bp.ResetStats()
	for _, id := range order[nPages-n:] {
		touch(id)
	}
	if st := bp.Stats(); st.Misses != 0 {
		t.Fatalf("the %d most recent pages after the shrink: %v, want no miss", n, st)
	}
	bp.ResetStats()
	for _, id := range order[:nPages-n] {
		touch(id)
	}
	if st := bp.Stats(); st.Hits != 0 {
		t.Fatalf("the %d older pages after the shrink: %v, want no hit", nPages-n, st)
	}
}

// TestPoolExhaustionIsTyped: pinning more pages than the pool has frames
// fails with ErrPoolExhausted without growing the pager, and Resize
// refuses to shrink below the pinned set without disturbing it.
func TestPoolExhaustionIsTyped(t *testing.T) {
	p := NewMemPager()
	bp := NewBufferPool(p, 8*PageSize)
	var pinned []*Frame
	for i := 0; i < 8; i++ {
		f, _, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
	}
	if _, _, err := bp.NewPage(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("ninth pin on an 8-frame pool: %v, want ErrPoolExhausted", err)
	}
	if p.NumPages() != 8 {
		t.Fatalf("a NewPage refused for want of a frame grew the pager to %d pages", p.NumPages())
	}
	if err := bp.Resize(64 * PageSize); err != nil {
		t.Fatal(err)
	}
	f, _, err := bp.NewPage()
	if err != nil {
		t.Fatalf("pin after growing the pool: %v", err)
	}
	pinned = append(pinned, f)
	if err := bp.Resize(8 * PageSize); err == nil {
		t.Fatal("shrank a pool below its 9 pinned frames")
	}
	for _, f := range pinned {
		bp.Unpin(f, false)
	}
	if err := bp.Resize(8 * PageSize); err != nil {
		t.Fatal(err)
	}
}
