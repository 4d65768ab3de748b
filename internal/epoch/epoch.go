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
// Reclamation is ordered: garbage attached to the publish that created
// epoch k is released only once every epoch older than k has retired,
// because a page superseded at epoch k may still be shared by any earlier
// snapshot.
package epoch

import (
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
	pending []garbage[G] // ascending by epoch
	retired uint64
}

// garbage is the deferred-free list attached to the publish that created
// epoch: the resources that epoch's predecessor owned exclusively.
type garbage[G any] struct {
	epoch uint64
	items []G
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
	n := &node[T]{val: v, born: time.Now()}
	n.refs.Store(1)

	m.mu.Lock()
	old := m.cur.Load()
	n.epoch = old.epoch + 1
	m.live[n.epoch] = n
	if len(garb) > 0 {
		m.pending = append(m.pending, garbage[G]{epoch: n.epoch, items: garb})
	}
	m.cur.Store(n)
	m.mu.Unlock()

	// Drop the manager's reference to the superseded snapshot; it retires
	// now if no reader holds it.
	m.release(old)
	return n.epoch
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
	if m.free != nil {
		for _, g := range freeable {
			m.free(g.items)
		}
	}
}

// minLiveLocked returns the smallest live epoch (the reclamation horizon);
// with no live epoch — transient between retire and the next publish —
// it reports the maximum. Caller holds m.mu.
func (m *Manager[T, G]) minLiveLocked() uint64 {
	min := ^uint64(0)
	for e := range m.live {
		if e < min {
			min = e
		}
	}
	return min
}

// collectFreeableLocked removes and returns every pending garbage batch
// whose epoch is ≤ the minimum live epoch — i.e. all snapshots that could
// still reference it have retired. Caller holds m.mu.
func (m *Manager[T, G]) collectFreeableLocked() []garbage[G] {
	min := m.minLiveLocked()
	i := 0
	for i < len(m.pending) && m.pending[i].epoch <= min {
		i++
	}
	if i == 0 {
		return nil
	}
	out := make([]garbage[G], i)
	copy(out, m.pending[:i])
	m.pending = append(m.pending[:0], m.pending[i:]...)
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
