// Package epoch implements refcounted snapshot epochs: a single writer
// publishes immutable snapshot values through an atomic pointer, readers
// pin the current snapshot for the lifetime of one operation without ever
// blocking (or being blocked by) the writer, and superseded snapshots are
// retired — and their exclusively-owned resources reclaimed — once the
// last reader releases them.
//
// The manager is generic: T is the snapshot value (published as-is, so it
// must be immutable or internally synchronized) and G is the unit of
// deferred garbage a publish hands over (for the graph database, the page
// IDs a copy-on-write tree update superseded).
//
// Garbage attached to the publish that created epoch k is released once
// no live epoch older than k can reach it: by default once every epoch
// older than k has retired, because a page superseded at epoch k may be
// shared by any earlier snapshot. Garbage published as a Span that no
// epoch before From can reach waits only for the epochs in [From, k), so
// a reader pinned to an old epoch holds back only what it can see.
package epoch

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// node is one published epoch: the snapshot value plus its reference
// count. refs starts at 1 (the manager's own reference, held while the
// node is current) and the node retires when it reaches zero.
type node[T any] struct {
	val   T
	epoch uint64
	refs  atomic.Int64
	born  time.Time
}

// tryAcquire increments refs unless the node already retired (refs == 0).
// The CAS loop makes pin-versus-retire safe: a reader that loses the race
// against the final release simply retries on a fresher current node.
func (n *node[T]) tryAcquire() bool {
	for {
		r := n.refs.Load()
		if r == 0 {
			return false
		}
		if n.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Stats is a point-in-time view of the manager's epoch bookkeeping.
type Stats struct {
	// Current is the epoch number of the currently published snapshot.
	Current uint64
	// Pinned is the number of live (not yet retired) epochs, including the
	// current one; it returns to 1 when no reads are in flight.
	Pinned int
	// OldestAge is how long ago the oldest live epoch was published.
	OldestAge time.Duration
	// Retired counts epochs retired since the manager was created.
	Retired uint64
}

// Manager publishes immutable snapshots of type T under a single-writer
// discipline: any number of goroutines may Pin/Current concurrently, but
// Publish calls must be externally serialised (the graph database holds
// its writer mutex across the whole prepare-and-publish cycle).
type Manager[T, G any] struct {
	cur atomic.Pointer[node[T]]

	// free releases garbage whose reclamation horizon has been reached. It
	// is called outside the manager's lock, possibly concurrently with
	// readers of *newer* epochs — never with anything that can still see
	// the garbage.
	free func([]G)

	mu      sync.Mutex
	live    map[uint64]*node[T]
	pending []garbage[G]
	retired uint64
}

// garbage is a deferred-free list attached to the publish that created
// epoch: resources only the epochs in [from, epoch) can reach.
type garbage[G any] struct {
	from, epoch uint64
	items       []G
}

// Span is garbage a publish hands over that no epoch before From can
// reach: for the graph database, the superseded pages a publish of epoch
// From allocated.
type Span[G any] struct {
	From  uint64
	Items []G
}

// NewManager returns a manager whose current snapshot is initial (epoch 0).
// free, which may be nil, reclaims garbage once no live epoch can see it.
func NewManager[T, G any](initial T, free func([]G)) *Manager[T, G] {
	m := &Manager[T, G]{free: free, live: make(map[uint64]*node[T])}
	n := &node[T]{val: initial, born: time.Now()}
	n.refs.Store(1)
	m.live[0] = n
	m.cur.Store(n)
	return m
}

// Pin acquires a reference to the current snapshot and returns it with a
// release func. The snapshot stays valid — and its resources unreclaimed —
// until release is called; release must be called exactly once. Pin never
// blocks on the writer.
func (m *Manager[T, G]) Pin() (T, func()) {
	for {
		n := m.cur.Load()
		if n.tryAcquire() {
			var once sync.Once
			return n.val, func() { once.Do(func() { m.release(n) }) }
		}
		// The node retired between the load and the acquire: a newer
		// current exists, retry on it.
	}
}

// Current returns the current snapshot without pinning it. Safe only when
// the caller does not dereference resources a concurrent publish could
// reclaim — the writer itself (already serialised) and best-effort stats.
func (m *Manager[T, G]) Current() T { return m.cur.Load().val }

// CurrentEpoch returns the epoch number of the current snapshot.
func (m *Manager[T, G]) CurrentEpoch() uint64 { return m.cur.Load().epoch }

// Publish installs v as the new current snapshot, attaching garbage to be
// freed once every epoch older than the new one has retired. It returns
// the new epoch number. Callers must serialise Publish externally.
func (m *Manager[T, G]) Publish(v T, garb []G) uint64 {
	return m.PublishSpans(v, []Span[G]{{Items: garb}})
}

// PublishSpans is Publish with garbage in spans: each span's items are
// freed once no live epoch in [From, the new epoch) remains — at once when
// From is the new epoch, for items no published snapshot ever reached.
func (m *Manager[T, G]) PublishSpans(v T, spans []Span[G]) uint64 {
	n := &node[T]{val: v, born: time.Now()}
	n.refs.Store(1)

	m.mu.Lock()
	old := m.cur.Load()
	n.epoch = old.epoch + 1
	m.live[n.epoch] = n
	for _, sp := range spans {
		if len(sp.Items) > 0 {
			m.pending = append(m.pending, garbage[G]{from: sp.From, epoch: n.epoch, items: sp.Items})
		}
	}
	m.cur.Store(n)
	freeable := m.collectFreeableLocked()
	m.mu.Unlock()
	m.freeAll(freeable)

	// Drop the manager's reference to the superseded snapshot; it retires
	// now if no reader holds it.
	m.release(old)
	return n.epoch
}

// Defer attaches garbage to the current epoch, as if its publish had
// handed it over: it is freed once every older epoch has retired — at once
// when none is live. It is for garbage the caller held back past its
// publish (the graph database keeps superseded pages of a file-backed
// database until a manifest that cannot reach them is durable). Like
// Publish, callers must serialise it with Publish externally.
func (m *Manager[T, G]) Defer(garb []G) {
	if len(garb) == 0 {
		return
	}
	m.mu.Lock()
	m.pending = append(m.pending, garbage[G]{epoch: m.cur.Load().epoch, items: garb})
	freeable := m.collectFreeableLocked()
	m.mu.Unlock()
	m.freeAll(freeable)
}

func (m *Manager[T, G]) freeAll(gs []garbage[G]) {
	if m.free != nil {
		for _, g := range gs {
			m.free(g.items)
		}
	}
}

// release drops one reference; the last one retires the node and releases
// any pending garbage whose horizon was waiting on it.
func (m *Manager[T, G]) release(n *node[T]) {
	if n.refs.Add(-1) != 0 {
		return
	}
	m.mu.Lock()
	delete(m.live, n.epoch)
	m.retired++
	freeable := m.collectFreeableLocked()
	m.mu.Unlock()
	m.freeAll(freeable)
}

// collectFreeableLocked removes and returns every pending garbage list no
// live epoch can reach: none of [from, epoch) is live. Caller holds m.mu.
func (m *Manager[T, G]) collectFreeableLocked() []garbage[G] {
	if len(m.pending) == 0 {
		return nil
	}
	live := make([]uint64, 0, len(m.live))
	for e := range m.live {
		live = append(live, e)
	}
	slices.Sort(live)
	var out []garbage[G]
	keep := m.pending[:0]
	for _, g := range m.pending {
		i, _ := slices.BinarySearch(live, g.from) // the oldest live epoch ≥ from
		if i < len(live) && live[i] < g.epoch {
			keep = append(keep, g)
			continue
		}
		out = append(out, g)
	}
	clear(m.pending[len(keep):])
	m.pending = keep
	return out
}

// Stats reports the manager's epoch bookkeeping.
func (m *Manager[T, G]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{Current: m.cur.Load().epoch, Pinned: len(m.live), Retired: m.retired}
	var oldest time.Time
	for _, n := range m.live {
		if oldest.IsZero() || n.born.Before(oldest) {
			oldest = n.born
		}
	}
	if !oldest.IsZero() {
		s.OldestAge = time.Since(oldest)
	}
	return s
}
