package main

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host is a few cores of a shared machine, and what it gives a process
// changes with what its neighbours do, in two ways that were both seen while
// this was built.
//
// Its speed wanders: over five minutes read_pipeline's throughput moved
// between 37 and 54 queries per second in steps that each lasted one to two
// minutes, longer than any run, with no steal time reported.
//
// Its cores are taken away: for seven minutes the hypervisor ran the two
// vCPUs about half the time (/proc/stat counted 45–55% steal), and every
// workload did half its usual work per second.
//
// No choice of cycles within a run (fastest quarter, medians) removes
// either: two runs of one commit differ by what each happened to meet.
// hostProbe measures it while the server is measured. Every probePeriod it
// times a burst of the kind of work the server does (fill, sort, hash into a
// map), records keys per second, and reads the steal counter. The host's
// speed over an interval is the median burst rate as a share of
// probeReference, times the share of CPU time that was not stolen (a 1 ms
// burst is rarely hit by a stolen slice, so the two do not overlap). Over 55
// separate runs each of read_pipeline and read_skew in 75 minutes, a third of
// them with CPU time being stolen, the quartile distance of qps was 16% and 22% of the
// median as measured (extremes 2× apart) and 4.5% and 6.1% divided by this
// speed; an exponent of 1 on the burst rate fitted best (0.5 and 1.5 left
// 6–8%). A pointer chase over 16 MB and an ALU loop followed the server with
// exponents of 1.3 to 2.9 that differed between workloads.
//
// The timing metrics are therefore reported at reference host speed: a time
// is multiplied, a rate divided, by the host's speed while it was measured.
// A burst lasts under 1 ms, so the probe takes about 1% of one core, the same
// on every commit, and allocates nothing once its map has grown.

const (
	probePeriod = 50 * time.Millisecond
	probeRounds = 4
	probeKeys   = 2048
	probeHashed = 512
	// probeReference is the probe's usual rate, in keys per second, beside a
	// busy server on the host the benchmark was built on. It only fixes the
	// scale of the reported numbers; comparisons between runs do not depend
	// on it.
	probeReference = 13e6
)

// probeSink keeps the compiler from discarding a burst's work.
var probeSink uint64

type speedSample struct {
	at   time.Time
	rate float64 // keys per second
	// steal and ticks are the host's cumulative stolen and total CPU time in
	// clock ticks; 0 where /proc/stat does not exist.
	steal, ticks float64
}

// hostProbe samples the host's speed from start until close.
type hostProbe struct {
	mu      sync.Mutex
	samples []speedSample
	stop    chan struct{}
	done    chan struct{}
}

func startHostProbe() *hostProbe {
	h := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go h.run()
	return h
}

func (h *hostProbe) run() {
	defer close(h.done)
	keys := make([]uint64, probeKeys)
	seen := make(map[uint64]int32, probeHashed)
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	var x uint64
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
		start := time.Now()
		for r := 0; r < probeRounds; r++ {
			for i := range keys {
				x = x*6364136223846793005 + 1442695040888963407
				keys[i] = x >> 20
			}
			slices.Sort(keys)
			clear(seen)
			for i, k := range keys[:probeHashed] {
				seen[k] = int32(i)
			}
			probeSink += uint64(len(seen)) + keys[0]
		}
		rate := probeRounds * probeKeys / time.Since(start).Seconds()
		steal, ticks := cpuTicks()
		h.mu.Lock()
		h.samples = append(h.samples, speedSample{at: start, rate: rate, steal: steal, ticks: ticks})
		h.mu.Unlock()
	}
}

// close stops the probe and waits for its goroutine.
func (h *hostProbe) close() {
	close(h.stop)
	<-h.done
}

// cpuTicks reads the first line of /proc/stat: the time all CPUs spent
// stolen by the hypervisor, and in any state, since boot.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// speed is the host's speed between from and to as a share of the
// reference: the median burst rate over probeReference, times the share of
// CPU time not stolen. It is 1 when the interval was too short to hold a
// sample.
func (h *hostProbe) speed(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var in []speedSample
	for _, s := range h.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			in = append(in, s)
		}
	}
	if len(in) == 0 {
		return 1
	}
	rates := make([]float64, len(in))
	for i, s := range in {
		rates[i] = s.rate
	}
	first, last := in[0], in[len(in)-1]
	return median(rates) / probeReference * (1 - ratio(last.steal-first.steal, last.ticks-first.ticks))
}
