package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrPoolExhausted reports a page request that found every frame of its
// shard pinned: the pool is too small for the number of goroutines reading
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
	id    PageID
	data  [PageSize]byte
	pins  int
	dirty bool
	lru   *list.Element // position in the shard's unpinned-LRU, nil while pinned
}

// poolShard is one independently locked partition of the pool. Pages map to
// shards by ID, so concurrent readers of different pages rarely contend.
type poolShard struct {
	mu     sync.Mutex
	frames map[PageID]*Frame
	lru    *list.List // of *Frame, front = most recently unpinned
	cap    int
}

const (
	// maxPoolShards bounds lock sharding.
	maxPoolShards = 16
	// framesPerShard is the target shard granularity: pools smaller than
	// this stay single-sharded and so keep exact global-LRU behavior.
	framesPerShard = 32
)

// BufferPool caches pages of a Pager with LRU replacement of unpinned
// frames. It is safe for concurrent use: the frame table is partitioned
// into independently locked shards (page ID modulo shard count), so
// parallel queries reading disjoint pages proceed without contention.
// Frame data may be read while the frame is pinned; pages are written only
// by their single owner (the storage engine is read-only after build except
// for per-query scratch heaps, which are single-writer).
type BufferPool struct {
	pager Pager
	// shards is replaced as a whole by Resize (under resizeMu and every old
	// shard's lock); page operations reach a shard only through lockShard.
	shards   atomic.Pointer[[]*poolShard]
	nframes  atomic.Int64
	resizeMu sync.Mutex

	statReads  atomic.Int64
	statWrites atomic.Int64
	statHits   atomic.Int64
	statMisses atomic.Int64

	// freeIDs holds page IDs released by FreePage for reuse by NewPage, so
	// per-query scratch allocations do not grow the page file forever.
	freeMu  sync.Mutex
	freeIDs []PageID
}

// DefaultPoolBytes is 1 MB — the buffer size the paper uses in Section 6.
const DefaultPoolBytes = 1 << 20

func shardCount(nframes int) int {
	n := nframes / framesPerShard
	if n < 1 {
		n = 1
	}
	if n > maxPoolShards {
		n = maxPoolShards
	}
	return n
}

// poolFrames converts a byte budget to a frame count (minimum 8).
func poolFrames(poolBytes int) int {
	n := poolBytes / PageSize
	if n < 8 {
		n = 8
	}
	return n
}

// newShards returns the empty shard set for an n-frame pool, the frame
// budget spread evenly across it.
func newShards(n int) []*poolShard {
	shards := make([]*poolShard, shardCount(n))
	base, rem := n/len(shards), n%len(shards)
	for i := range shards {
		shards[i] = &poolShard{frames: make(map[PageID]*Frame), lru: list.New(), cap: base}
		if i < rem {
			shards[i].cap++
		}
	}
	return shards
}

// NewBufferPool wraps pager with a pool of poolBytes/PageSize frames
// (minimum 8).
func NewBufferPool(pager Pager, poolBytes int) *BufferPool {
	n := poolFrames(poolBytes)
	bp := &BufferPool{pager: pager}
	shards := newShards(n)
	bp.shards.Store(&shards)
	bp.nframes.Store(int64(n))
	return bp
}

// lockShard returns the shard holding page id, locked. Resize swaps the
// shard set while holding every old shard's lock, so a caller that waited
// out a Resize finds the set changed once it gets the lock, and retries
// on the new one.
func (bp *BufferPool) lockShard(id PageID) *poolShard {
	for {
		set := bp.shards.Load()
		s := (*set)[int(id)%len(*set)]
		s.mu.Lock()
		if bp.shards.Load() == set {
			return s
		}
		s.mu.Unlock()
	}
}

// Stats returns the accumulated I/O counters.
func (bp *BufferPool) Stats() IOStats {
	return IOStats{
		Reads:  bp.statReads.Load(),
		Writes: bp.statWrites.Load(),
		Hits:   bp.statHits.Load(),
		Misses: bp.statMisses.Load(),
	}
}

// ResetStats zeroes the I/O counters.
func (bp *BufferPool) ResetStats() {
	bp.statReads.Store(0)
	bp.statWrites.Store(0)
	bp.statHits.Store(0)
	bp.statMisses.Store(0)
}

// Capacity returns the number of frames.
func (bp *BufferPool) Capacity() int { return int(bp.nframes.Load()) }

// Pager exposes the underlying pager.
func (bp *BufferPool) Pager() Pager { return bp.pager }

// Fetch pins page id and returns its Frame data. The caller must Unpin it.
func (bp *BufferPool) Fetch(id PageID) (*Frame, error) {
	s := bp.lockShard(id)
	defer s.mu.Unlock()
	if f, ok := s.frames[id]; ok {
		bp.statHits.Add(1)
		s.pin(f)
		return f, nil
	}
	bp.statMisses.Add(1)
	f, err := s.victim(bp)
	if err != nil {
		return nil, err
	}
	if err := bp.pager.ReadPage(id, f.data[:]); err != nil {
		// The victim frame was already detached from the map and LRU; drop
		// it — the shard re-grows lazily while under capacity.
		return nil, err
	}
	bp.statReads.Add(1)
	f.id = id
	f.pins = 1
	f.dirty = false
	s.frames[id] = f
	return f, nil
}

// NewPage allocates a fresh zeroed page, pins it, and returns the Frame and
// ID. Pages released with FreePage are reused before the pager grows.
func (bp *BufferPool) NewPage() (*Frame, PageID, error) {
	bp.freeMu.Lock()
	var id PageID
	reused := false
	if n := len(bp.freeIDs); n > 0 {
		id = bp.freeIDs[n-1]
		bp.freeIDs = bp.freeIDs[:n-1]
		reused = true
	}
	bp.freeMu.Unlock()
	if !reused {
		var err error
		id, err = bp.pager.Allocate()
		if err != nil {
			return nil, InvalidPage, err
		}
	}
	s := bp.lockShard(id)
	defer s.mu.Unlock()
	f, err := s.victim(bp)
	if err != nil {
		if reused {
			bp.freeMu.Lock()
			bp.freeIDs = append(bp.freeIDs, id)
			bp.freeMu.Unlock()
		}
		return nil, InvalidPage, err
	}
	for i := range f.data {
		f.data[i] = 0
	}
	f.id = id
	f.pins = 1
	f.dirty = true
	s.frames[id] = f
	return f, id, nil
}

// FreePage returns an unpinned page to the pool's free list for reuse by a
// later NewPage. A resident frame is dropped without flushing (the content
// is dead). Freeing a pinned page is an error.
func (bp *BufferPool) FreePage(id PageID) error {
	s := bp.lockShard(id)
	if f, ok := s.frames[id]; ok {
		if f.pins > 0 {
			s.mu.Unlock()
			return fmt.Errorf("storage: FreePage of pinned page %d", id)
		}
		s.lru.Remove(f.lru)
		f.lru = nil
		delete(s.frames, id)
	}
	s.mu.Unlock()
	bp.freeMu.Lock()
	bp.freeIDs = append(bp.freeIDs, id)
	bp.freeMu.Unlock()
	return nil
}

// Unpin releases one pin on f, marking it dirty if the caller modified it.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	s := bp.lockShard(f.id)
	defer s.mu.Unlock()
	if f.pins <= 0 {
		panic("storage: Unpin of unpinned Frame")
	}
	if dirty {
		f.dirty = true
	}
	f.pins--
	if f.pins == 0 {
		s.lru.PushFront(f)
		f.lru = s.lru.Front()
	}
}

// Data returns the page bytes of a pinned Frame.
func (f *Frame) Data() []byte { return f.data[:] }

// ID returns the page ID held by the Frame.
func (f *Frame) ID() PageID { return f.id }

// pin re-pins a resident Frame. Caller holds the shard lock.
func (s *poolShard) pin(f *Frame) {
	if f.pins == 0 && f.lru != nil {
		s.lru.Remove(f.lru)
		f.lru = nil
	}
	f.pins++
}

// victim returns an unpinned Frame to reuse, evicting the shard's LRU page
// (and flushing it if dirty), or a brand-new Frame while under capacity.
// Caller holds the shard lock.
func (s *poolShard) victim(bp *BufferPool) (*Frame, error) {
	if len(s.frames) < s.cap {
		return &Frame{}, nil
	}
	el := s.lru.Back()
	if el == nil {
		return nil, fmt.Errorf("%w (%d frames all pinned)", ErrPoolExhausted, len(s.frames))
	}
	f := el.Value.(*Frame)
	s.lru.Remove(el)
	f.lru = nil
	delete(s.frames, f.id)
	if err := bp.flush(f); err != nil {
		return nil, err
	}
	return f, nil
}

// flush writes f back to the pager if it is dirty. Caller holds the lock
// of the shard f belongs to.
func (bp *BufferPool) flush(f *Frame) error {
	if !f.dirty {
		return nil
	}
	if err := bp.pager.WritePage(f.id, f.data[:]); err != nil {
		return err
	}
	bp.statWrites.Add(1)
	f.dirty = false
	return nil
}

// Resize changes the pool's capacity to poolBytes/PageSize frames (minimum
// 8) and re-shards it for the new size, so a pool shrunk far below its
// construction size does not end up with one frame per shard (where two
// concurrent pins in a shard exhaust it). Pinned frames stay resident;
// unpinned ones keep their place, most recently used first, while their
// new shard has room, and the rest are flushed and evicted. Safe under
// concurrent page traffic, which waits out the swap. Used to measure
// queries under a buffer-to-data ratio matching the paper's setting after
// building with a larger pool.
func (bp *BufferPool) Resize(poolBytes int) error {
	n := poolFrames(poolBytes)
	bp.resizeMu.Lock()
	defer bp.resizeMu.Unlock()
	old := *bp.shards.Load()
	for _, s := range old {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range old {
			s.mu.Unlock()
		}
	}()

	next := newShards(n)
	home := func(id PageID) *poolShard { return next[int(id)%len(next)] }
	for _, s := range old {
		for id, f := range s.frames {
			if f.pins > 0 {
				home(id).frames[id] = f
			}
		}
	}
	for _, ns := range next {
		if len(ns.frames) > ns.cap {
			return fmt.Errorf("storage: cannot shrink pool below %d pinned frames", len(ns.frames))
		}
	}
	// Deal the unpinned frames out of the old LRU lists one recency rank at
	// a time (every shard's most recent, then every shard's second, ...).
	var keep, evict []*Frame
	room := make(map[*poolShard]int, len(next))
	for _, ns := range next {
		room[ns] = ns.cap - len(ns.frames)
	}
	cursors := make([]*list.Element, len(old))
	for i, s := range old {
		cursors[i] = s.lru.Front()
	}
	for more := true; more; {
		more = false
		for i, el := range cursors {
			if el == nil {
				continue
			}
			more = true
			cursors[i] = el.Next()
			f := el.Value.(*Frame)
			if ns := home(f.id); room[ns] > 0 {
				room[ns]--
				keep = append(keep, f)
			} else {
				evict = append(evict, f)
			}
		}
	}
	// Flush before anything moves: a write error leaves the old shard set
	// in place and intact.
	for _, f := range evict {
		if err := bp.flush(f); err != nil {
			return err
		}
	}
	for _, f := range evict {
		f.lru = nil
	}
	for i := len(keep) - 1; i >= 0; i-- { // least recent first, so PushFront restores the order
		f := keep[i]
		ns := home(f.id)
		ns.frames[f.id] = f
		f.lru = ns.lru.PushFront(f)
	}
	bp.shards.Store(&next)
	bp.nframes.Store(int64(n))
	return nil
}

// FlushAll writes every dirty resident page back to the pager.
func (bp *BufferPool) FlushAll() error {
	bp.resizeMu.Lock() // the shard set must not be swapped mid-walk
	defer bp.resizeMu.Unlock()
	for _, s := range *bp.shards.Load() {
		s.mu.Lock()
		for _, f := range s.frames {
			if err := bp.flush(f); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// lruLen is exported for white-box tests.
func (bp *BufferPool) lruLen() int {
	n := 0
	for _, s := range *bp.shards.Load() {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
