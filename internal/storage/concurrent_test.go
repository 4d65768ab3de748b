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
	bp := NewBufferPool(p, 64*PageSize) // 64 frames, multiple shards
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

// TestResizeReshardsUnderLoad shrinks and regrows the pool while readers
// pin and unpin through it. Before Resize re-sharded, a pool built with 16
// shards and shrunk to 16 frames had one frame per shard, and two readers
// meeting in a shard got "buffer pool exhausted"; now the shard count
// follows the size, every read must succeed, and content must survive the
// moves. Run with -race.
func TestResizeReshardsUnderLoad(t *testing.T) {
	p := NewMemPager()
	bp := NewBufferPool(p, 4096*PageSize) // 16 shards
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
	if n := len(*bp.shards.Load()); n != maxPoolShards {
		t.Fatalf("large pool has %d shards, want %d", n, maxPoolShards)
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
			if got, want := len(*bp.shards.Load()), shardCount(frames); got != want {
				t.Fatalf("pool of %d frames has %d shards, want %d", frames, got, want)
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

// TestPoolExhaustionIsTyped: pinning more pages than the pool has frames
// fails with ErrPoolExhausted, and Resize refuses to shrink below the
// pinned set without disturbing it.
func TestPoolExhaustionIsTyped(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), 8*PageSize)
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
