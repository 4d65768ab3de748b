package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"time"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/server"
)

// span is one timed call into a layer. Spans of one request share its
// identifier; Parent is the ID of the span that caused this one, 0 for a
// request's root. Counts are taken at the same boundary as the times, so a
// ratio is measured where the work happens.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Request int              `json:"request"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. The benchmark records
// them from its own files, around its calls into each layer; spans inside
// the program are a later change.
type tracer struct {
	t0     time.Time
	spans  []span
	sample [1]rtmetrics.Sample
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.sample[0].Name = "/gc/heap/allocs:objects"
	return t
}

func (t *tracer) begin(name string, parent, request int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, StartNS: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int, counts map[string]int64) {
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
	t.spans[id-1].Counts = counts
}

// allocs reads the process-wide count of heap objects allocated. The traced
// pass is single-threaded, so a difference of two reads is the enclosed
// call's allocations; unlike runtime.ReadMemStats it does not stop the
// world.
func (t *tracer) allocs() int64 {
	rtmetrics.Read(t.sample[:])
	return int64(t.sample[0].Value.Uint64())
}

// stepSpanName maps an executed plan step to the layer metric it feeds. An
// R-semijoin group is the paper's Filter, so it reports as rjoin.filter.
func stepSpanName(k optimizer.StepKind) string {
	if k == optimizer.StepSemijoinGroup {
		return "rjoin.filter"
	}
	return "rjoin." + k.String()
}

// runRequest does in process what the server does for one POST /query, one
// layer call at a time, with a span around each: parse, pin an epoch, plan
// cold (no plan cache), execute with the runtime the server would choose,
// encode the response. It returns the result's row count.
func runRequest(tr *tracer, id int, db *gdb.DB, q query) (int, error) {
	root := tr.begin("request", 0, id)
	defer func() { tr.end(root, nil) }()

	sp := tr.begin("pattern.parse", root, id)
	p, err := pattern.Parse(q.Pattern)
	tr.end(sp, nil)
	if err != nil {
		return 0, err
	}

	sp = tr.begin("epoch.pin", root, id)
	snap, release := db.Pin()
	tr.end(sp, nil)
	defer release()

	sp = tr.begin("optimizer.plan", root, id)
	a0 := tr.allocs()
	plan, err := exec.BuildPlanSnapConfig(snap, p, exec.DPS, exec.PlanConfig{})
	a1 := tr.allocs()
	if err != nil {
		return 0, err
	}
	wcoj := int64(0)
	if plan.Steps[0].Kind == optimizer.StepWCOJ {
		wcoj = 1
	}
	tr.end(sp, map[string]int64{"allocs": a1 - a0, fmt.Sprintf("tier%d", plan.Tier()): 1, "wcoj": wcoj})

	rt := rjoin.NewFastRuntime()
	if plan.Tier() == 3 {
		rt = rjoin.NewRuntime(0)
	}
	sp = tr.begin("exec.run", root, id)
	a0 = tr.allocs()
	t, steps, err := exec.RunSnapWithTraceConfig(context.Background(), snap, plan, true,
		exec.RunConfig{Runtime: rt, Budget: &rjoin.Budget{ResultRows: q.Limit}})
	a1 = tr.allocs()
	if err != nil {
		return 0, err
	}
	st := rt.Stats()
	tr.end(sp, map[string]int64{
		"allocs": a1 - a0, "rows": int64(t.Len()),
		"ops": st.Ops, "parallel_ops": st.ParallelOps, "tasks": st.Tasks, "worker_slots": st.Ops * int64(rt.Workers()),
		"center_cache_hits": st.CenterCacheHits, "center_cache_misses": st.CenterCacheMisses,
	})
	// StepTrace carries durations, not start times; steps run one after
	// another, so they are laid end to end from the run's start. What is
	// left of exec.run after them is its self time.
	at := tr.spans[sp-1].StartNS
	for _, s := range steps {
		d := int64(s.ElapsedMS * 1e6)
		tr.spans = append(tr.spans, span{
			ID: len(tr.spans) + 1, Parent: sp, Request: id, Name: stepSpanName(s.Step.Kind), StartNS: at, EndNS: at + d,
			Counts: map[string]int64{"rows": int64(s.Rows), "pages": s.IO, "seeks": s.Seeks},
		})
		at += d
	}

	sp = tr.begin("server.encode", root, id)
	body, err := json.Marshal(server.QueryResponse{
		Cols: plan.Binding.Pattern.Nodes, Rows: t.Rows, RowCount: t.Len(),
	})
	tr.end(sp, map[string]int64{"bytes": int64(len(body)), "rows": int64(t.Len())})
	return t.Len(), err
}

// total is the summed duration, self time and counts of every span with
// one name.
type total struct {
	n      int
	ns     int64
	selfNS int64
	counts map[string]int64
}

// totals sums spans by name. A span's self time is its duration minus the
// part its children cover.
func (t *tracer) totals() map[string]*total {
	childNS := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		childNS[s.Parent] += s.EndNS - s.StartNS
	}
	out := make(map[string]*total)
	for _, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &total{counts: make(map[string]int64)}
			out[s.Name] = a
		}
		a.n++
		a.ns += s.EndNS - s.StartNS
		a.selfNS += s.EndNS - s.StartNS - childNS[s.ID]
		for k, v := range s.Counts {
			a.counts[k] += v
		}
	}
	return out
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// traceRepeats is how often the traced pass runs each distinct query.
const traceRepeats = 5

// runPass runs every query traceRepeats times through runRequest and
// returns each query's row count.
func runPass(tr *tracer, db *gdb.DB, qs []query) ([]int, error) {
	rows := make([]int, len(qs))
	for rep := 0; rep < traceRepeats; rep++ {
		for i, q := range qs {
			n, err := runRequest(tr, rep*len(qs)+i+1, db, q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.Name, err)
			}
			rows[i] = n
		}
	}
	return rows, nil
}
