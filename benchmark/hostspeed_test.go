package main

import (
	"math"
	"testing"
	"time"
)

// TestHostSpeed checks the arithmetic of hostProbe.speed on hand-made
// samples: the median rate of the samples inside the interval, times the
// share of ticks not stolen between the first and the last of them.
func TestHostSpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	h := &hostProbe{samples: []speedSample{
		{at: at(0), rate: 99 * probeReference, steal: 0, ticks: 0}, // before the interval
		{at: at(50), rate: probeReference, steal: 10, ticks: 100},
		{at: at(100), rate: 2 * probeReference, steal: 20, ticks: 200},
		{at: at(150), rate: 50 * probeReference, steal: 60, ticks: 300}, // one burst hit by a stolen slice
		{at: at(200), rate: probeReference, steal: 99, ticks: 400},      // after it
	}}
	if got, want := h.speed(at(50), at(200)), 2*(1-50.0/200); math.Abs(got-want) > 1e-12 {
		t.Errorf("speed = %v, want %v", got, want)
	}
	if got := h.speed(at(300), at(400)); got != 1 {
		t.Errorf("speed over an interval without samples = %v, want 1", got)
	}
	// Without /proc/stat every tick count is 0 and only the rate counts.
	h = &hostProbe{samples: []speedSample{{at: at(10), rate: probeReference / 2}, {at: at(60), rate: probeReference / 2}}}
	if got := h.speed(at(0), at(100)); got != 0.5 {
		t.Errorf("speed without tick counts = %v, want 0.5", got)
	}
}

// TestHostProbeSamples runs the probe briefly: it must record bursts with a
// positive rate and stop when closed.
func TestHostProbeSamples(t *testing.T) {
	start := time.Now()
	h := startHostProbe()
	time.Sleep(5 * probePeriod)
	h.close()
	if len(h.samples) < 2 {
		t.Fatalf("%d samples in %v", len(h.samples), time.Since(start))
	}
	for _, s := range h.samples {
		if !(s.rate > 0) || math.IsInf(s.rate, 0) {
			t.Errorf("burst rate %v", s.rate)
		}
	}
	if v := h.speed(start, time.Now()); !(v > 0) {
		t.Errorf("speed = %v", v)
	}
}
