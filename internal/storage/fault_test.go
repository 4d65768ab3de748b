package storage

import (
	"errors"
	"testing"
	"time"
)

// faultPager wraps a MemPager and fails operations after a countdown,
// exercising error propagation through the pool, heap, and B+-tree.
type faultPager struct {
	inner      *MemPager
	readsLeft  int // fail reads when it reaches 0 (negative = never fail)
	writesLeft int
	allocsLeft int
}

var errInjected = errors.New("injected fault")

func newFaultPager() *faultPager {
	return &faultPager{inner: NewMemPager(), readsLeft: -1, writesLeft: -1, allocsLeft: -1}
}

func (p *faultPager) ReadPage(id PageID, buf []byte) error {
	if p.readsLeft == 0 {
		return errInjected
	}
	if p.readsLeft > 0 {
		p.readsLeft--
	}
	return p.inner.ReadPage(id, buf)
}

func (p *faultPager) WritePage(id PageID, buf []byte) error {
	if p.writesLeft == 0 {
		return errInjected
	}
	if p.writesLeft > 0 {
		p.writesLeft--
	}
	return p.inner.WritePage(id, buf)
}

func (p *faultPager) Allocate() (PageID, error) {
	if p.allocsLeft == 0 {
		return InvalidPage, errInjected
	}
	if p.allocsLeft > 0 {
		p.allocsLeft--
	}
	return p.inner.Allocate()
}

func (p *faultPager) NumPages() int { return p.inner.NumPages() }
func (p *faultPager) Close() error  { return p.inner.Close() }

func TestPoolSurfacesReadFault(t *testing.T) {
	fp := newFaultPager()
	bp := NewBufferPool(fp, 8*PageSize)
	var ids []PageID
	for i := 0; i < 20; i++ {
		f, id, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, true)
		ids = append(ids, id)
	}
	fp.readsLeft = 0
	// Page 0 was evicted (pool holds 8 of 20), so this is a physical read.
	if _, err := bp.Fetch(ids[0]); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	// Pool must remain usable for resident pages.
	fp.readsLeft = -1
	f, err := bp.Fetch(ids[len(ids)-1])
	if err != nil {
		t.Fatalf("pool unusable after read fault: %v", err)
	}
	bp.Unpin(f, false)
}

func TestPoolSurfacesWriteFaultOnEviction(t *testing.T) {
	fp := newFaultPager()
	bp := NewBufferPool(fp, 8*PageSize)
	for i := 0; i < 8; i++ {
		f, _, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = 1
		bp.Unpin(f, true)
	}
	fp.writesLeft = 0
	// Next allocation must evict a dirty page → write fault surfaces.
	if _, _, err := bp.NewPage(); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

func TestPoolSurfacesAllocFault(t *testing.T) {
	fp := newFaultPager()
	bp := NewBufferPool(fp, 8*PageSize)
	fp.allocsLeft = 0
	if _, _, err := bp.NewPage(); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

func TestHeapSurfacesFaults(t *testing.T) {
	fp := newFaultPager()
	bp := NewBufferPool(fp, 8*PageSize)
	h := NewHeapFile(bp)
	rid, err := h.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	// Chained insert with failing allocation.
	fp.allocsLeft = 1
	if _, err := h.Insert(make([]byte, 3*PageSize)); !errors.Is(err, errInjected) {
		t.Fatalf("chained insert err = %v, want injected fault", err)
	}
	fp.allocsLeft = -1
	// Evict the record's page (fill well past the 8-frame pool), then fail
	// its read-back.
	for i := 0; i < 60; i++ {
		if _, err := h.Insert(make([]byte, maxInline)); err != nil {
			t.Fatal(err)
		}
	}
	fp.readsLeft = 0
	if _, err := h.Read(rid); !errors.Is(err, errInjected) {
		t.Fatalf("read err = %v, want injected fault", err)
	}
}

func TestBTreeSurfacesFaults(t *testing.T) {
	fp := newFaultPager()
	bp := NewBufferPool(fp, 8*PageSize)
	bt, err := NewBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 2000; i++ {
		if err := bt.Insert(key32(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	fp.readsLeft = 0
	if _, _, err := bt.Get(key32(1)); !errors.Is(err, errInjected) {
		t.Fatalf("Get err = %v, want injected fault", err)
	}
	if err := bt.Scan(nil, func([]byte, uint64) bool { return true }); !errors.Is(err, errInjected) {
		t.Fatalf("Scan err = %v, want injected fault", err)
	}
	fp.readsLeft = -1
	fp.allocsLeft = 0
	// Force splits until an allocation is needed.
	var splitErr error
	for i := uint32(10000); i < 13000; i++ {
		if splitErr = bt.Insert(key32(i), 1); splitErr != nil {
			break
		}
	}
	if !errors.Is(splitErr, errInjected) {
		t.Fatalf("split err = %v, want injected fault", splitErr)
	}
}

func TestResizeFlushesDirtyPages(t *testing.T) {
	fp := newFaultPager()
	bp := NewBufferPool(fp, 64*PageSize)
	var ids []PageID
	for i := 0; i < 32; i++ {
		f, id, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i + 1)
		bp.Unpin(f, true)
		ids = append(ids, id)
	}
	if err := bp.Resize(8 * PageSize); err != nil {
		t.Fatal(err)
	}
	if bp.lruLen() > 8 {
		t.Fatalf("pool still holds %d unpinned frames after shrink", bp.lruLen())
	}
	// All content must be readable (from disk where evicted).
	for i, id := range ids {
		f, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != byte(i+1) {
			t.Fatalf("page %d content lost on shrink", id)
		}
		bp.Unpin(f, false)
	}
}

// TestFailedEvictionKeepsDirtyPage: when the write-back of the LRU page
// fails, that frame holds the only copy of the page's newest bytes, so it
// must stay resident and dirty rather than be dropped for the pager's older
// copy.
func TestFailedEvictionKeepsDirtyPage(t *testing.T) {
	fp := newFaultPager()
	bp := NewBufferPool(fp, 8*PageSize)
	var ids []PageID
	for i := 0; i < 8; i++ {
		f, id, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = 1
		bp.Unpin(f, true)
		ids = append(ids, id)
	}
	fp.writesLeft = 0
	if _, _, err := bp.NewPage(); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	fp.writesLeft = -1
	f, err := bp.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	got := f.Data()[0]
	bp.Unpin(f, false)
	if got != 1 {
		t.Fatalf("page %d reads %d after a failed eviction, want 1", ids[0], got)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := fp.inner.ReadPage(ids[0], buf); err != nil || buf[0] != 1 {
		t.Fatalf("page %d on the pager after FlushAll: %d (%v), want 1", ids[0], buf[0], err)
	}
}

// TestBTreeCorruptNodeIsTyped: a node whose key count or slot offset points
// off the page fails Get and Scan with ErrCorrupt and leaves no pin behind,
// for a leaf and for an internal node.
func TestBTreeCorruptNodeIsTyped(t *testing.T) {
	flips := []struct {
		name string
		flip func(p []byte)
	}{
		{"nKeys", func(p []byte) { p[2] ^= 0x80 }},
		{"slot", func(p []byte) { setSlot(p, nKeys(p)/2, slotOff(p, nKeys(p)/2)^0x8000) }},
	}
	for _, node := range []string{"leaf", "internal"} {
		for _, fl := range flips {
			t.Run(node+"/"+fl.name, func(t *testing.T) {
				bp := NewBufferPool(NewMemPager(), 256*PageSize)
				bt, err := NewBTree(bp)
				if err != nil {
					t.Fatal(err)
				}
				for i := uint32(0); i < 2000; i++ {
					if err := bt.Insert(key32(i), uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
				f, err := bp.Fetch(bt.Root())
				if err != nil {
					t.Fatal(err)
				}
				if f.Data()[0] != btKindInternal || nKeys(f.Data()) < 2 {
					t.Fatal("want an internal root over several leaves")
				}
				id := bt.Root()
				if node == "leaf" {
					id = link(f.Data()) // the leftmost leaf, which holds key32(0)
				}
				bp.Unpin(f, false)
				if f, err = bp.Fetch(id); err != nil {
					t.Fatal(err)
				}
				fl.flip(f.Data())
				bp.Unpin(f, true)

				if _, _, err := bt.Get(key32(0)); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Get: %v, want ErrCorrupt", err)
				}
				if err := bt.Scan(nil, func([]byte, uint64) bool { return true }); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Scan: %v, want ErrCorrupt", err)
				}
				if err := bp.Resize(8 * PageSize); err != nil {
					t.Fatalf("shrink after the corrupt reads: %v", err)
				}
				if err := bp.FreePage(id); err != nil {
					t.Fatalf("corrupt page left pinned: %v", err)
				}
			})
		}
	}
}

// TestBTreeBadChildIsTyped: an internal node whose child pointer leads back
// to the root, or past the end of the store, fails Get and Scan with
// ErrCorrupt instead of descending forever or overflowing the stack.
func TestBTreeBadChildIsTyped(t *testing.T) {
	for _, tc := range []struct {
		name  string
		child func(bt *BTree, bp *BufferPool) PageID
	}{
		{"root", func(bt *BTree, _ *BufferPool) PageID { return bt.Root() }},
		{"past-end", func(_ *BTree, bp *BufferPool) PageID { return PageID(bp.Pager().NumPages() + 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bp := NewBufferPool(NewMemPager(), 256*PageSize)
			bt, err := NewBTree(bp)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint32(0); i < 2000; i++ {
				if err := bt.Insert(key32(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			f, err := bp.Fetch(bt.Root())
			if err != nil {
				t.Fatal(err)
			}
			if f.Data()[0] != btKindInternal {
				t.Fatal("want an internal root")
			}
			setLink(f.Data(), tc.child(bt, bp)) // the leftmost child, which holds key32(0)
			bp.Unpin(f, true)

			done := make(chan [2]error, 1)
			go func() {
				_, _, getErr := bt.Get(key32(0))
				scanErr := bt.Scan(nil, func([]byte, uint64) bool { return true })
				done <- [2]error{getErr, scanErr}
			}()
			select {
			case errs := <-done:
				if !errors.Is(errs[0], ErrCorrupt) {
					t.Fatalf("Get: %v, want ErrCorrupt", errs[0])
				}
				if !errors.Is(errs[1], ErrCorrupt) {
					t.Fatalf("Scan: %v, want ErrCorrupt", errs[1])
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Get or Scan still descending after 10s")
			}
		})
	}
}
