package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fastmatch/internal/graph"
	"fastmatch/internal/server"
)

// request is one prepared POST /query with the answer it must give.
type request struct {
	body     []byte
	wantRows int // -1: check the status code only
}

// prepare encodes the query list into request bodies, in list order.
func prepare(qs []query, wantRows []int) []request {
	reqs := make([]request, len(qs))
	for i, q := range qs {
		body, _ := json.Marshal(server.QueryRequest{Pattern: q.Pattern, Limit: q.Limit}) // plain strings and ints cannot fail
		reqs[i] = request{body: body, wantRows: -1}
		if wantRows != nil {
			reqs[i].wantRows = wantRows[i]
		}
	}
	return reqs
}

// httpClient holds one keep-alive connection, as one closed-loop caller
// would.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// post sends body and returns the status and the response body read into
// buf (reused across calls).
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

var rowCountKey = []byte(`"row_count":`)

// rowCount extracts row_count from a QueryResponse body without decoding
// rows, so the load generator does not compete with the server for CPU. The
// field follows rows, and node IDs are numbers, so the last occurrence of
// the key is the field.
func rowCount(body []byte) (int, bool) {
	i := bytes.LastIndex(body, rowCountKey)
	if i < 0 {
		return 0, false
	}
	j := i + len(rowCountKey)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	n, err := strconv.Atoi(string(body[j:k]))
	return n, err == nil
}

// cycle is one pass of one client over the whole query list. Every cycle
// does the same work, so cycles compare directly.
type cycle struct {
	attempted, failed int
	rows              int64
	latMS             []float64 // of the requests that succeeded
	elapsed           time.Duration
}

// runClient sends reqs one at a time in whole cycles, each cycle in the
// order schedule gives for it: it stops at the first cycle boundary after
// deadline, and runs at least one cycle. Whole cycles keep the executed
// multiset the same on every run, so throughput does not depend on where a
// window happens to cut a list whose queries differ 100-fold in cost. It
// returns the cycles and the first failure, if any.
func runClient(url string, reqs []request, seed int64, client int, deadline time.Time) ([]cycle, error) {
	c := httpClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	var cycles []cycle
	var firstErr error
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		cy := cycle{latMS: make([]float64, 0, len(reqs))}
		start := time.Now()
		for _, i := range schedule(seed, client, k, len(reqs)) {
			rq := reqs[i]
			t := time.Now()
			status, err := post(c, url+"/query", rq.body, &buf)
			lat := time.Since(t)
			cy.attempted++
			rows, ok := rowCount(buf.Bytes())
			switch {
			case err != nil:
			case status != http.StatusOK:
				err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
			case !ok:
				err = fmt.Errorf("no row_count in response")
			case rq.wantRows >= 0 && rows != rq.wantRows:
				err = fmt.Errorf("row_count %d, want %d", rows, rq.wantRows)
			}
			if err != nil {
				cy.failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", rq.body, err)
				}
				continue
			}
			cy.rows += int64(rows)
			cy.latMS = append(cy.latMS, ms(lat))
		}
		cy.elapsed = time.Since(start)
		cycles = append(cycles, cy)
	}
	return cycles, firstErr
}

// reads sums cycles of several clients. Rates are sums of per-client rates,
// so a client that finishes its last cycle early does not dilute them.
type reads struct {
	attempted, failed int
	rows              int64
	latMS             []float64
	qps, rowsPerS     float64
}

func sumReads(clients [][]cycle) reads {
	var r reads
	for _, cycles := range clients {
		var ok int
		var rows int64
		var elapsed time.Duration
		for _, cy := range cycles {
			r.attempted += cy.attempted
			r.failed += cy.failed
			r.latMS = append(r.latMS, cy.latMS...)
			ok += len(cy.latMS)
			rows += cy.rows
			elapsed += cy.elapsed
		}
		r.rows += rows
		r.qps += float64(ok) / elapsed.Seconds()
		r.rowsPerS += float64(rows) / elapsed.Seconds()
	}
	return r
}

// writerResult is what the paced writer measured.
type writerResult struct {
	attempted, failed int
	latMS             []float64 // from each write's due time
	lagMaxMS          float64   // how late the writer started a write, at worst
	firstErr          error
}

const (
	writePeriod     = 200 * time.Millisecond
	writeBatchSize  = 4
	writeBatchCount = 64
)

// runWriter is the open-loop writer: write i is due at start + i×writePeriod,
// even i inserting batch i/2 and odd i deleting it again. Latency is taken
// from the due time, so a stalled write charges the writes queued behind
// it. After stop closes it still sends a pending delete, so the graph ends
// as it began.
func runWriter(url string, batches [][][2]graph.NodeID, stop <-chan struct{}) writerResult {
	var res writerResult
	c := httpClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * writePeriod)
		stopped := false
		select {
		case <-stop:
			stopped = true
		case <-time.After(time.Until(due)):
		}
		if stopped && i%2 == 0 {
			return res
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		route := "/insert"
		if i%2 == 1 {
			route = "/delete"
		}
		body, _ := json.Marshal(server.InsertRequest{Edges: batches[(i/2)%len(batches)]}) // node IDs cannot fail
		lagMS := ms(time.Since(due))
		status, err := post(c, url+route, body, &buf)
		latMS := ms(time.Since(due))
		res.attempted++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s: %w", route, err)
			}
			continue
		}
		res.latMS = append(res.latMS, latMS)
		res.lagMaxMS = max(res.lagMaxMS, lagMS)
	}
}

// counters is the state read before and after a served window; every
// per-window metric is a difference of two of these.
type counters struct {
	srv server.Stats
	mem runtime.MemStats
}

func readCounters(in *instance) counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.srv = in.srv.Stats()
	return c
}

// window is one served measurement: what the clients, the writer and the
// counters around them saw, and when.
type window struct {
	reads
	firstErr      error
	writes        writerResult
	before, after counters
	start, end    time.Time
}

// clients is the closed-loop client count: the benchmark shares the host
// with the server it drives, so more callers than cores would only measure
// the scheduler.
func clients() int { return min(runtime.NumCPU(), 2) }

// serve drives in closed-loop for d (rounded up to whole cycles) and
// returns what the clients, the writer and the counters saw.
func serve(in *instance, reqs []request, seed int64, batches [][][2]graph.NodeID, d time.Duration) window {
	var w window
	w.before = readCounters(in)
	w.start = time.Now()
	deadline := w.start.Add(d)
	cycles := make([][]cycle, clients())
	errs := make([]error, clients())
	var wg sync.WaitGroup
	for c := range cycles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cycles[c], errs[c] = runClient(in.url, reqs, seed, c, deadline)
		}()
	}
	stop := make(chan struct{})
	wrote := make(chan writerResult, 1)
	if batches != nil {
		go func() { wrote <- runWriter(in.url, batches, stop) }()
	}
	wg.Wait()
	close(stop)
	if batches != nil {
		w.writes = <-wrote
	}
	w.end = time.Now()
	w.after = readCounters(in)
	w.reads = sumReads(cycles)
	w.firstErr = errors.Join(append(errs, w.writes.firstErr)...)
	return w
}
