package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"fastmatch/internal/graph"
)

// config is what one run of one workload is given.
type config struct {
	// seed drives what is sent: the schedule's order, the write batches and
	// the probes' keys. dataSeed drives what is served: the graph. They are
	// apart because a graph's shape moves every metric by far more than a
	// regression bound (read_skew's qps spreads 70% over ten graph seeds,
	// read_pipeline's allocation per query 13%), so runs that are to be
	// compared must share the dataset, as the paper's runs share an XMark
	// rung.
	seed, dataSeed int64
	window         time.Duration
	// nodes overrides every workload's dataset size (the smoke test runs at
	// 2k nodes); 0 keeps each workload's own.
	nodes  int
	outDir string
}

// An untraced run sets up from scratch at least setupRepeats times and for
// at least setupTime, but no more than maxSetupRepeats times; setup_s is the
// median, which one slow page-cache miss cannot move. The time floor gives
// the host probe enough samples where a set-up takes 0.1 s (read_skew).
const (
	setupRepeats    = 5
	maxSetupRepeats = 25
	setupTime       = 2 * time.Second
)

// result is one run's outcome in the shape the driver reads.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metrics
	// Samples is the number of read latencies behind lat_p50_ms/lat_p95_ms.
	Samples int
	// GraphHash and AnswerHash fingerprint the inputs and the verified
	// answers; two runs with one seed must agree on both.
	GraphHash  uint64
	AnswerHash uint64
}

// prepared is a served workload that passed the correctness gate and has
// been warmed up: ready for a timed window.
type prepared struct {
	s       spec
	in      *instance
	qs      []query
	answers []answer
	reqs    []request
	batches [][][2]graph.NodeID
	setupS  []float64
	// setupEnd is when the last set-up finished; the host's speed over the
	// set-ups is taken up to here.
	setupEnd time.Time
}

// prepareWorkload sets the workload up (once, or as often as setupRepeats
// says, keeping the last instance), checks every distinct query's answer,
// and runs one untimed cycle per client so the plan cache and the snapshot
// memos are full.
func prepareWorkload(s spec, cfg config, repeat bool) (*prepared, error) {
	nodes := s.nodes
	if cfg.nodes > 0 {
		nodes = cfg.nodes
	}
	p := &prepared{s: s, qs: s.queries()}
	start := time.Now()
	for i := 0; i == 0 || repeat && i < maxSetupRepeats && (i < setupRepeats || time.Since(start) < setupTime); i++ {
		if p.in != nil {
			if err := p.in.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		// Each set-up starts from a collected heap, so the first is not
		// favoured and the last not charged for its predecessors' garbage.
		runtime.GC()
		in, err := setup(s, cfg.dataSeed, nodes, cfg.outDir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.in = in
		p.setupS = append(p.setupS, in.setupSeconds())
	}
	p.setupEnd = time.Now()
	progress("%s: set up %d times", s.name, len(p.setupS))
	if err := naiveCheck(s, cfg.dataSeed, p.qs); err != nil {
		p.in.close()
		return nil, fmt.Errorf("naive check: %w", err)
	}
	progress("%s: naive check passed", s.name)
	var err error
	if p.answers, err = crossCheck(p.in, p.qs); err != nil {
		p.in.close()
		return nil, fmt.Errorf("cross-check: %w", err)
	}
	progress("%s: cross-check passed", s.name)
	var wantRows []int
	if s.writer {
		// Row counts move with every published batch, so the timed window
		// checks status codes only; the graph is re-verified afterwards.
		p.batches = writeBatches(cfg.seed, p.in.g, writeBatchCount, writeBatchSize)
	} else {
		wantRows = make([]int, len(p.answers))
		for i, a := range p.answers {
			wantRows[i] = a.Rows
		}
	}
	p.reqs = prepare(p.qs, wantRows)
	if warm := serve(p.in, p.reqs, cfg.seed, p.batches, 0); warm.firstErr != nil {
		p.in.close()
		return nil, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	runtime.GC()
	progress("%s: warmed up", s.name)
	return p, nil
}

// restored re-asks every query after a write window and requires the
// pre-run answers: the writer's last delete undid its last insert, so any
// difference means the insert→delete round trip damaged the index.
func (p *prepared) restored() error {
	after, err := answersHTTP(p.in.url, p.qs)
	if err != nil {
		return err
	}
	for i, a := range after {
		if a != p.answers[i] {
			return fmt.Errorf("%s: %+v after the write window, %+v before it", p.qs[i].Name, a, p.answers[i])
		}
	}
	return nil
}

// newResult fills the fields both kinds of run share. A failed request or
// a failed restore check makes the run incorrect, but its metrics are still
// reported, as found.
func (p *prepared) newResult(w window) (*result, error) {
	r := &result{
		Attempted: w.attempted + w.writes.attempted,
		Failed:    w.failed + w.writes.failed,
		Samples:   len(w.latMS),
		GraphHash: graphHash(p.in.g),
	}
	for _, a := range p.answers {
		r.AnswerHash = r.AnswerHash*31 + a.Hash + uint64(a.Rows)
	}
	var err error
	if r.Failed > 0 {
		err = fmt.Errorf("%d of %d requests failed: %w", r.Failed, r.Attempted, w.firstErr)
	}
	if p.s.writer && err == nil {
		err = p.restored()
	}
	r.Correct = err == nil
	return r, err
}

var processStart = time.Now()

// progress reports a finished phase on standard error with the time since
// the process started, so a slow run shows where it spent it.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

// runEndToEnd is the untraced run: the numbers a user of the server sees.
// The timing metrics are reported at reference host speed (see hostProbe):
// a time is multiplied, a rate divided, by the host's speed while it was
// measured. The value as measured is printed beside each.
func runEndToEnd(s spec, cfg config) (*result, error) {
	probe := startHostProbe()
	defer probe.close()
	setupStart := time.Now()
	p, err := prepareWorkload(s, cfg, true)
	if err != nil {
		return nil, err
	}
	defer p.in.close()
	setupSpeed := probe.speed(setupStart, p.setupEnd)
	w := serve(p.in, p.reqs, cfg.seed, p.batches, cfg.window)
	speed := probe.speed(w.start, w.end)
	progress("%s: served window done; host speed %.4f in the window, %.4f in set-up", s.name, speed, setupSpeed)
	r, err := p.newResult(w)
	measured := func(v, speed float64) string {
		return fmt.Sprintf("as measured %.4f at host speed %.3f", v, speed)
	}
	m := &r.Metrics
	m.addNote("qps", w.qps/speed, "1/s", measured(w.qps, speed))
	m.addNote("rows_per_s", w.rowsPerS/speed, "1/s", measured(w.rowsPerS, speed))
	p50, p95 := median(w.latMS), quantile(w.latMS, 0.95)
	m.addNote("lat_p50_ms", p50*speed, "ms", fmt.Sprintf("samples=%d, ", r.Samples)+measured(p50, speed))
	m.addNote("lat_p95_ms", p95*speed, "ms", measured(p95, speed))
	ok := float64(len(w.latMS) + len(w.writes.latMS))
	m.add("ok_ratio", ratio(ok, float64(r.Attempted)), "ratio")
	m.add("alloc_mb_per_query", ratio(float64(w.after.mem.TotalAlloc-w.before.mem.TotalAlloc)/1e6, float64(len(w.latMS))), "MB")
	m.add("index_mb", float64(p.in.indexBytes)/1e6, "MB")
	m.addNote("setup_s", median(p.setupS)*setupSpeed, "s", measured(median(p.setupS), setupSpeed))
	return r, err
}
