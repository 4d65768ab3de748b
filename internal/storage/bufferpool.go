package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrPoolExhausted reports a page request that found every frame of the
// pool pinned: the pool is too small for the number of goroutines reading
// through it at once. Match with errors.Is.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted")

// IOStats counts page traffic through a buffer pool. Logical accesses are
// Hits+Misses; physical I/O is Reads+Writes. The experiment harness reports
// these as the paper's "I/O cost".
type IOStats struct {
	Reads  int64 // physical page reads from the pager
	Writes int64 // physical page writes to the pager
	Hits   int64 // buffer pool hits
	Misses int64 // buffer pool misses
}

// Logical returns the number of logical page accesses.
func (s IOStats) Logical() int64 { return s.Hits + s.Misses }

// Sub returns s - o, for measuring an interval.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{Reads: s.Reads - o.Reads, Writes: s.Writes - o.Writes,
		Hits: s.Hits - o.Hits, Misses: s.Misses - o.Misses}
}

func (s IOStats) String() string {
	return fmt.Sprintf("io{reads=%d writes=%d hits=%d misses=%d}", s.Reads, s.Writes, s.Hits, s.Misses)
}

// Frame is a buffer pool slot.
type Frame struct {
	// prev and next link the frame into the pool's LRU while it is
	// resident and unpinned: the list allocates nothing per unpin. They
	// come first so the garbage collector scans a frame's pointers without
	// walking its data.
	prev, next *Frame
	dirty      bool
	// checked: a fetch check accepted data since its load or dirty unpin.
	checked bool
	id      PageID
	pins    int
	data    [PageSize]byte
}

// frameList is the pool's LRU of unpinned frames, threaded through the
// frames themselves: front is the most recently unpinned.
type frameList struct {
	front, back *Frame
	n           int
}

func (l *frameList) pushFront(f *Frame) {
	f.prev, f.next = nil, l.front
	if l.front != nil {
		l.front.prev = f
	} else {
		l.back = f
	}
	l.front = f
	l.n++
}

func (l *frameList) remove(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.front = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.back = f.prev
	}
	f.prev, f.next = nil, nil
	l.n--
}

// BufferPool caches pages of a Pager with LRU replacement of unpinned
// frames. It is safe for concurrent use: one mutex guards all its state
// and is held across a miss's pager read and an eviction's write-back.
// Frame data may be read while the frame is pinned; a page is written only
// by its single owner (a per-query scratch heap, or the single writer's
// copy-on-write batch before it publishes).
type BufferPool struct {
	pager Pager

	mu     sync.Mutex
	frames map[PageID]*Frame
	lru    frameList
	cap    int
	// spare holds the frames of pages FreePage released, for victim to
	// hand out before it allocates a new one: len(frames)+len(spare)
	// never exceeds cap.
	spare []*Frame
	// freeIDs holds page IDs released by FreePage for reuse by NewPage, so
	// per-query scratch allocations and the pages a write batch superseded
	// do not grow the page file forever; recycled counts FreePage calls.
	freeIDs  []PageID
	recycled int64
	stats    IOStats
}

// DefaultPoolBytes is 1 MB — the buffer size the paper uses in Section 6.
const DefaultPoolBytes = 1 << 20

// poolFrames converts a byte budget to a frame count (minimum 8).
func poolFrames(poolBytes int) int { return max(poolBytes/PageSize, 8) }

// NewBufferPool wraps pager with a pool of poolBytes/PageSize frames
// (minimum 8).
func NewBufferPool(pager Pager, poolBytes int) *BufferPool {
	return &BufferPool{pager: pager, frames: make(map[PageID]*Frame), cap: poolFrames(poolBytes)}
}

// Stats returns the accumulated I/O counters.
func (bp *BufferPool) Stats() IOStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the I/O counters.
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = IOStats{}
}

// Capacity returns the number of frames.
func (bp *BufferPool) Capacity() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.cap
}

// Pager exposes the underlying pager.
func (bp *BufferPool) Pager() Pager { return bp.pager }

// Fetch pins page id and returns its Frame data. The caller must Unpin it.
func (bp *BufferPool) Fetch(id PageID) (*Frame, error) { return bp.fetch(id, nil) }

// fetch is Fetch that first holds the page to check, when not nil, once
// per load or dirty unpin, so unchanged bytes are not walked again. A page
// check refuses is left unpinned and check's error returned.
func (bp *BufferPool) fetch(id PageID, check func([]byte, PageID) error) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if ok {
		bp.stats.Hits++
	} else {
		bp.stats.Misses++
		var err error
		if f, err = bp.victim(); err != nil {
			return nil, err
		}
		if err := bp.pager.ReadPage(id, f.data[:]); err != nil {
			bp.spare = append(bp.spare, f)
			return nil, err
		}
		bp.stats.Reads++
		f.id, f.dirty, f.checked = id, false, false
		bp.frames[id] = f
		bp.lru.pushFront(f)
	}
	if check != nil && !f.checked {
		if err := check(f.data[:], id); err != nil {
			return nil, err
		}
		f.checked = true
	}
	if f.pins == 0 {
		bp.lru.remove(f)
	}
	f.pins++
	return f, nil
}

// NewPage allocates a fresh zeroed page, pins it, and returns the Frame and
// ID. Pages released with FreePage are reused before the pager grows.
func (bp *BufferPool) NewPage() (*Frame, PageID, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.victim()
	if err != nil {
		return nil, InvalidPage, err
	}
	var id PageID
	if n := len(bp.freeIDs); n > 0 {
		id, bp.freeIDs = bp.freeIDs[n-1], bp.freeIDs[:n-1]
	} else if id, err = bp.pager.Allocate(); err != nil {
		bp.spare = append(bp.spare, f)
		return nil, InvalidPage, err
	}
	clear(f.data[:])
	f.id, f.pins, f.dirty, f.checked = id, 1, true, false
	bp.frames[id] = f
	return f, id, nil
}

// FreePage returns an unpinned page to the pool's free list for reuse by a
// later NewPage. A resident frame is detached without flushing (the content
// is dead) and kept as a spare, so the NewPage that recycles the ID
// allocates no frame. Freeing a pinned page is an error.
func (bp *BufferPool) FreePage(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		if f.pins > 0 {
			return fmt.Errorf("storage: FreePage of pinned page %d", id)
		}
		bp.lru.remove(f)
		f.dirty = false
		delete(bp.frames, id)
		bp.spare = append(bp.spare, f)
	}
	bp.freeIDs = append(bp.freeIDs, id)
	bp.recycled++
	return nil
}

// FreePages returns the number of page IDs on the free list, waiting for a
// NewPage to reuse them.
func (bp *BufferPool) FreePages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.freeIDs)
}

// Recycled returns how many pages FreePage has returned to the free list
// since the pool was created.
func (bp *BufferPool) Recycled() int64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.recycled
}

// Unpin releases one pin on f, marking it dirty if the caller modified it.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f.pins <= 0 {
		panic("storage: Unpin of unpinned Frame")
	}
	if dirty {
		f.dirty, f.checked = true, false
	}
	f.pins--
	if f.pins == 0 {
		bp.lru.pushFront(f)
	}
}

// Data returns the page bytes of a pinned Frame.
func (f *Frame) Data() []byte { return f.data[:] }

// ID returns the page ID held by the Frame.
func (f *Frame) ID() PageID { return f.id }

// victim returns a detached Frame to reuse: while under capacity a spare
// (a freed page's) or a brand-new one, else the LRU page, evicted. Caller
// holds bp.mu.
func (bp *BufferPool) victim() (*Frame, error) {
	if len(bp.frames) < bp.cap {
		if n := len(bp.spare); n > 0 {
			f := bp.spare[n-1]
			bp.spare = bp.spare[:n-1]
			return f, nil
		}
		return &Frame{}, nil
	}
	return bp.evict()
}

// evict flushes the least recently unpinned frame if it is dirty and only
// then detaches it: a failed write-back leaves the frame, the only copy of
// the page's newest bytes, resident and dirty. Caller holds bp.mu.
func (bp *BufferPool) evict() (*Frame, error) {
	f := bp.lru.back
	if f == nil {
		return nil, fmt.Errorf("%w (%d frames all pinned)", ErrPoolExhausted, len(bp.frames))
	}
	if err := bp.flush(f); err != nil {
		return nil, err
	}
	bp.lru.remove(f)
	delete(bp.frames, f.id)
	return f, nil
}

// flush writes f back to the pager if it is dirty. Caller holds bp.mu.
func (bp *BufferPool) flush(f *Frame) error {
	if !f.dirty {
		return nil
	}
	if err := bp.pager.WritePage(f.id, f.data[:]); err != nil {
		return err
	}
	bp.stats.Writes++
	f.dirty = false
	return nil
}

// Resize changes the pool's capacity to poolBytes/PageSize frames (minimum
// 8). It refuses, changing nothing, to shrink below the pinned frames, and
// otherwise evicts least recently unpinned frames until the pool fits.
// Used to measure queries at the paper's buffer-to-data ratio after
// building with a larger pool.
func (bp *BufferPool) Resize(poolBytes int) error {
	n := poolFrames(poolBytes)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if pinned := len(bp.frames) - bp.lru.n; pinned > n {
		return fmt.Errorf("storage: cannot shrink pool below %d pinned frames", pinned)
	}
	for len(bp.frames) > n {
		if _, err := bp.evict(); err != nil {
			return err
		}
	}
	bp.cap = n
	bp.spare = nil
	return nil
}

// FlushAll writes every dirty resident page back to the pager.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if err := bp.flush(f); err != nil {
			return err
		}
	}
	return nil
}

// lruLen counts the resident unpinned frames, for tests.
func (bp *BufferPool) lruLen() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.lru.n
}
