package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPinSeesCurrent(t *testing.T) {
	m := NewManager[int, int](10, nil)
	v, release := m.Pin()
	if v != 10 {
		t.Fatalf("pinned %d, want 10", v)
	}
	m.Publish(20, nil)
	// The held pin still refers to the old value; a fresh pin sees the new.
	v2, release2 := m.Pin()
	if v2 != 20 {
		t.Fatalf("pinned %d after publish, want 20", v2)
	}
	release()
	release2()
	if got := m.Current(); got != 20 {
		t.Fatalf("Current() = %d, want 20", got)
	}
	if e := m.CurrentEpoch(); e != 1 {
		t.Fatalf("CurrentEpoch() = %d, want 1", e)
	}
}

func TestRetireAtZeroRefs(t *testing.T) {
	m := NewManager[int, int](0, nil)
	_, r1 := m.Pin()
	_, r2 := m.Pin()
	m.Publish(1, nil)
	if s := m.Stats(); s.Pinned != 2 {
		t.Fatalf("Pinned = %d with a held old epoch, want 2", s.Pinned)
	}
	r1()
	if s := m.Stats(); s.Pinned != 2 {
		t.Fatalf("Pinned = %d with one ref still held, want 2", s.Pinned)
	}
	r2()
	s := m.Stats()
	if s.Pinned != 1 {
		t.Fatalf("Pinned = %d after all releases, want 1", s.Pinned)
	}
	if s.Retired != 1 {
		t.Fatalf("Retired = %d, want 1", s.Retired)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	m := NewManager[int, int](0, nil)
	_, release := m.Pin()
	release()
	release() // second call must be a no-op, not a double-decrement
	m.Publish(1, nil)
	if s := m.Stats(); s.Pinned != 1 {
		t.Fatalf("Pinned = %d, want 1", s.Pinned)
	}
}

// TestGarbageOrderedRelease checks the reclamation horizon: garbage from
// epoch k is freed only after every epoch older than k retires.
func TestGarbageOrderedRelease(t *testing.T) {
	var mu sync.Mutex
	var freed []int
	m := NewManager[int, int](0, func(items []int) {
		mu.Lock()
		freed = append(freed, items...)
		mu.Unlock()
	})

	_, holdEpoch0 := m.Pin()
	m.Publish(1, []int{100}) // garbage of epoch 1: freeable once epoch 0 retires
	m.Publish(2, []int{200}) // garbage of epoch 2: freeable once epochs 0,1 retire

	mu.Lock()
	if len(freed) != 0 {
		t.Fatalf("freed %v while epoch 0 still pinned", freed)
	}
	mu.Unlock()

	holdEpoch0()
	mu.Lock()
	defer mu.Unlock()
	if want := []int{100, 200}; len(freed) != 2 || freed[0] != want[0] || freed[1] != want[1] {
		t.Fatalf("freed %v after last old epoch retired, want %v", freed, want)
	}
}

func TestGarbageFreedImmediatelyWhenUnpinned(t *testing.T) {
	var freed atomic.Int64
	m := NewManager[int, int](0, func(items []int) { freed.Add(int64(len(items))) })
	m.Publish(1, []int{1, 2, 3})
	if got := freed.Load(); got != 3 {
		t.Fatalf("freed %d items with no pins outstanding, want 3", got)
	}
	if s := m.Stats(); s.Pinned != 1 || s.Current != 1 {
		t.Fatalf("stats = %+v, want Pinned 1 Current 1", s)
	}
}

// TestConcurrentPinPublish hammers Pin/release against a publishing writer
// under the race detector: every pinned value must be one that was
// actually published, and afterwards exactly one epoch stays live.
func TestConcurrentPinPublish(t *testing.T) {
	const publishes = 200
	const readers = 4
	m := NewManager[int, int](0, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, release := m.Pin()
				if v < 0 || v > publishes {
					t.Errorf("pinned impossible value %d", v)
				}
				release()
			}
		}()
	}
	for i := 1; i <= publishes; i++ {
		m.Publish(i, []int{i})
	}
	close(stop)
	wg.Wait()
	if got := m.Current(); got != publishes {
		t.Fatalf("Current() = %d, want %d", got, publishes)
	}
	s := m.Stats()
	if s.Pinned != 1 {
		t.Fatalf("Pinned = %d when idle, want 1", s.Pinned)
	}
	if s.Retired != publishes {
		t.Fatalf("Retired = %d, want %d", s.Retired, publishes)
	}
}

// TestDeferWaitsForOlderEpochs: garbage deferred at epoch k is freed once
// every epoch older than k has retired, whatever epoch its pages were
// superseded in, and at once when no older epoch is live.
func TestDeferWaitsForOlderEpochs(t *testing.T) {
	var freed []int
	m := NewManager[int, int](0, func(items []int) { freed = append(freed, items...) })
	_, r0 := m.Pin()
	m.Publish(1, nil)
	_, r1 := m.Pin()
	m.Publish(2, nil)
	m.Defer([]int{7, 8})
	if len(freed) != 0 {
		t.Fatalf("freed %v while epochs 0 and 1 are pinned", freed)
	}
	r0()
	if len(freed) != 0 {
		t.Fatalf("freed %v while epoch 1 is pinned", freed)
	}
	r1()
	if len(freed) != 2 {
		t.Fatalf("freed %v after every older epoch retired, want [7 8]", freed)
	}
	m.Defer([]int{9})
	if len(freed) != 3 || freed[2] != 9 {
		t.Fatalf("freed %v: garbage deferred with no older epoch live must go at once", freed)
	}
	m.Defer(nil)
}

// TestSpanWaitsOnlyForItsEpochs: garbage no epoch before From can reach is
// freed once the epochs in [From, its publish) have retired, whatever
// older epoch a reader still pins; garbage born and superseded by the same
// publish goes at once.
func TestSpanWaitsOnlyForItsEpochs(t *testing.T) {
	var freed []int
	m := NewManager[int, int](0, func(items []int) { freed = append(freed, items...) })
	_, r0 := m.Pin() // an old reader, pinned throughout
	defer r0()
	m.Publish(1, nil)
	_, r1 := m.Pin()
	m.PublishSpans(2, []Span[int]{{From: 1, Items: []int{10}}, {From: 2, Items: []int{20}}, {Items: []int{30}}})
	if len(freed) != 1 || freed[0] != 20 {
		t.Fatalf("freed %v, want only [20] (born and superseded by epoch 2's publish)", freed)
	}
	r1()
	if len(freed) != 2 || freed[1] != 10 {
		t.Fatalf("freed %v after epoch 1 retired, want 10 next: epoch 0 cannot reach it", freed)
	}
	m.PublishSpans(3, []Span[int]{{From: 2, Items: []int{40}}})
	if len(freed) != 3 || freed[2] != 40 {
		t.Fatalf("freed %v, want 40 once epoch 2 retired at publish", freed)
	}
	if s := m.Stats(); s.Pinned != 2 {
		t.Fatalf("Pinned = %d, want 2 (epoch 0 and the current)", s.Pinned)
	}
}
