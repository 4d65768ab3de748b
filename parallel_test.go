package fastmatch_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"fastmatch"
	"fastmatch/internal/exec"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// TestErrClosed: after Close, every Engine entry point fails with the typed
// ErrClosed sentinel, and Close stays idempotent.
func TestErrClosed(t *testing.T) {
	d := xmark.Generate(xmark.Config{Nodes: 400, Seed: 3, DAG: true})
	eng, err := fastmatch.NewEngine(d.Graph, fastmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := eng.Parallel(fastmatch.ServeConfig{})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	p := fastmatch.MustPattern("site->regions")
	if _, err := eng.QueryPattern(p, fastmatch.DPS); !errors.Is(err, fastmatch.ErrClosed) {
		t.Fatalf("QueryPattern after Close: %v", err)
	}
	if _, err := eng.Query("site->regions"); !errors.Is(err, fastmatch.ErrClosed) {
		t.Fatalf("Query after Close: %v", err)
	}
	if _, err := eng.Explain(p, fastmatch.DP); !errors.Is(err, fastmatch.ErrClosed) {
		t.Fatalf("Explain after Close: %v", err)
	}
	if _, _, _, err := eng.ExplainAnalyze(p, fastmatch.DPS); !errors.Is(err, fastmatch.ErrClosed) {
		t.Fatalf("ExplainAnalyze after Close: %v", err)
	}
	if _, err := eng.Reaches(0, 1); !errors.Is(err, fastmatch.ErrClosed) {
		t.Fatalf("Reaches after Close: %v", err)
	}
	if _, err := svc.Query(context.Background(), "site->regions", ""); !errors.Is(err, fastmatch.ErrClosed) {
		t.Fatalf("Service query after Close: %v", err)
	}
}

// TestParallelQueries is the concurrency stress test: 8 goroutines issue
// mixed path/tree patterns against one engine — memory-backed and
// file-backed — and every result must equal the naive matcher's. Run under
// -race this exercises the shared buffer pool, the partner tables, the stats
// memos, and per-query scratch heaps.
func TestParallelQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := xmark.Generate(xmark.Config{Nodes: 2500, Seed: 7, DAG: true})
	g := d.Graph

	var batteries []workload.Workload
	batteries = append(batteries, workload.Paths()[:4]...)
	batteries = append(batteries, workload.Trees()[:4]...)

	type expectation struct {
		w    workload.Workload
		rows [][]fastmatch.NodeID
	}
	want := make([]expectation, len(batteries))
	for i, w := range batteries {
		naive, err := exec.NaiveMatch(g, w.Pattern)
		if err != nil {
			t.Fatalf("%s naive: %v", w.Name, err)
		}
		naive.SortRows()
		want[i] = expectation{w: w, rows: naive.Rows}
	}

	engines := map[string]fastmatch.Options{
		"memory": {},
		"file":   {Path: filepath.Join(t.TempDir(), "stress.fgmdb")},
	}
	for name, opt := range engines {
		t.Run(name, func(t *testing.T) {
			eng, err := fastmatch.NewEngine(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			const workers = 8
			const itersPerWorker = 6
			var wg sync.WaitGroup
			errc := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					algos := []fastmatch.Algorithm{fastmatch.DP, fastmatch.DPS}
					for i := 0; i < itersPerWorker; i++ {
						e := want[(worker+3*i)%len(want)]
						res, err := eng.QueryPattern(e.w.Pattern, algos[(worker+i)%len(algos)])
						if err != nil {
							errc <- err
							return
						}
						res.SortRows()
						if !reflect.DeepEqual(res.Rows, e.rows) {
							errc <- errors.New(e.w.Name + ": parallel result differs from naive matcher")
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
		})
	}
}

// TestServiceParallel drives the serving layer end to end with more
// clients than execution slots: all queries succeed (the queue absorbs the
// burst), results stay correct, and the stats add up.
func TestServiceParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := xmark.Generate(xmark.Config{Nodes: 2000, Seed: 11, DAG: true})
	eng, err := fastmatch.NewEngine(d.Graph, fastmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	svc := eng.Parallel(fastmatch.ServeConfig{
		MaxInFlight:  4,
		QueueTimeout: 30 * time.Second, // absorb, don't shed: correctness run
	})

	batteries := workload.Paths()[:3]
	want := make(map[string][][]fastmatch.NodeID, len(batteries))
	for _, w := range batteries {
		naive, err := exec.NaiveMatch(d.Graph, w.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		naive.SortRows()
		want[w.Name] = naive.Rows
	}

	const clients = 12
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			w := batteries[client%len(batteries)]
			res, err := svc.QueryPattern(context.Background(), w.Pattern, fastmatch.DPS)
			if err != nil {
				errc <- err
				return
			}
			rows := append([][]fastmatch.NodeID(nil), res.Rows...)
			sortRows(rows)
			if !reflect.DeepEqual(rows, want[w.Name]) {
				errc <- errors.New(w.Name + ": served result differs from naive matcher")
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Queries != clients || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Every lookup is a hit or a miss; concurrent misses on one pattern
	// each plan, so the misses are not bounded by the distinct patterns.
	if n := st.PlanCacheHits + st.PlanCacheMisses; n != clients {
		t.Fatalf("plan cache accounted %d lookups, want %d", n, clients)
	}
}

func sortRows(rows [][]fastmatch.NodeID) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && lessRow(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func lessRow(a, b []fastmatch.NodeID) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}
