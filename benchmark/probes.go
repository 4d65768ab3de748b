package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/server"
	"fastmatch/internal/storage"
)

// probeCalls is how many calls each direct probe of a read function makes.
const probeCalls = 2000

// perCall runs f(0..n-1) and returns the mean time of one call in
// nanoseconds, with its fraction: the calls are far shorter than the clock
// is fine.
func perCall(n int, f func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(n), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clusterKey names one subcluster: center w and a label.
type clusterKey struct {
	w graph.NodeID
	l graph.Label
}

// probeReads times the gdb.Snap read calls directly on a pinned snapshot,
// over keys the workload's own queries touch: the label pairs of their
// edges, centers of those pairs, and seed-sampled nodes. Each call is made
// once untimed first, so the numbers are the warm path the served window
// runs on (on read_smallpool "warm" still misses the 1 MB pool).
func probeReads(m *metrics, db *gdb.DB, qs []query, seed int64) error {
	snap, release := db.Pin()
	defer release()
	g := snap.Graph()
	r := rand.New(rand.NewSource(seed ^ 0x9b0e))

	var pairs [][2]graph.Label
	for _, q := range qs {
		p, err := pattern.Parse(q.Pattern)
		if err != nil {
			return err
		}
		for _, e := range p.Edges {
			pairs = append(pairs, [2]graph.Label{g.Labels().Lookup(p.Nodes[e.From]), g.Labels().Lookup(p.Nodes[e.To])})
		}
	}
	var fKeys, tKeys []clusterKey
	for _, pr := range pairs {
		ws, err := snap.Centers(pr[0], pr[1])
		if err != nil {
			return err
		}
		for _, w := range ws {
			fKeys = append(fKeys, clusterKey{w, pr[0]})
			tKeys = append(tKeys, clusterKey{w, pr[1]})
		}
	}
	if len(fKeys) == 0 {
		return fmt.Errorf("no centers under any query edge")
	}
	r.Shuffle(len(fKeys), func(i, j int) {
		fKeys[i], fKeys[j] = fKeys[j], fKeys[i]
		tKeys[i], tKeys[j] = tKeys[j], tKeys[i]
	})
	nodes := make([]graph.NodeID, probeCalls+1)
	for i := range nodes {
		nodes[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}

	probes := []struct {
		name string
		call func(i int) error
	}{
		{"gdb.centers_us", func(i int) error { _, err := snap.Centers(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]); return err }},
		{"gdb.getf_us", func(i int) error { k := fKeys[i%len(fKeys)]; _, err := snap.GetF(k.w, k.l); return err }},
		{"gdb.gett_us", func(i int) error { k := tKeys[i%len(tKeys)]; _, err := snap.GetT(k.w, k.l); return err }},
		{"gdb.fastf_us", func(i int) error { k := fKeys[i%len(fKeys)]; _, err := snap.FastF(k.w, k.l); return err }},
		{"gdb.outcode_us", func(i int) error { _, err := snap.OutCode(nodes[i]); return err }},
		{"gdb.reaches_us", func(i int) error { _, err := snap.Reaches(nodes[i], nodes[i+1]); return err }},
	}
	took := make(map[string]float64)
	for _, p := range probes {
		if _, err := perCall(probeCalls, p.call); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		d, err := perCall(probeCalls, p.call)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		took[p.name] = d
		m.add(p.name, d/1e3, "us")
	}
	// The gap the "one read path" direction must close to about 1.
	m.add("gdb.getf_over_fastf", ratio(took["gdb.getf_us"], took["gdb.fastf_us"]), "ratio")

	d, _ := perCall(100000, func(int) error { _, rel := db.Pin(); rel(); return nil })
	m.add("epoch.pin_ns", d, "ns")
	return nil
}

// probeWrites times the write path, reopening and persisting directly, on
// a scratch database: the workload's graph and labeling built into a page
// file of its own (with the workload's pool size), closed and reopened
// (gdb.open_s), then given batches of the writer's size, inserted and deleted
// again, after one untimed pair that seeds the incremental labeling, and
// finally synced (gdb.persist_s: graph records, dirty pages, manifest).
func probeWrites(m *metrics, in *instance, poolBytes int, seed int64, outDir string) error {
	dir, err := os.MkdirTemp(outDir, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opt := gdb.Options{Path: filepath.Join(dir, "graph.fdb"), PoolBytes: poolBytes}
	db, err := gdb.BuildFromIndex(in.g, in.idx, opt)
	if err != nil {
		return fmt.Errorf("scratch build: %w", err)
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("scratch close: %w", err)
	}
	t := time.Now()
	if db, err = gdb.Open(opt.Path, gdb.Options{PoolBytes: poolBytes}); err != nil {
		return fmt.Errorf("scratch open: %w", err)
	}
	defer db.Close()
	m.add("gdb.open_s", time.Since(t).Seconds(), "s")

	const timed = 8
	batches := writeBatches(seed^0x77, in.g, timed+1, writeBatchSize)
	var insMS, delMS []float64
	var labelEntries, edges int
	var io0 storage.IOStats
	for i, b := range batches {
		if i == 1 {
			io0 = db.IOStats()
		}
		t := time.Now()
		ins, err := db.ApplyEdgeInserts(b)
		insD := time.Since(t)
		if err != nil {
			return fmt.Errorf("insert probe: %w", err)
		}
		t = time.Now()
		dels, err := db.ApplyEdgeDeletes(b)
		delD := time.Since(t)
		if err != nil {
			return fmt.Errorf("delete probe: %w", err)
		}
		if i == 0 {
			continue
		}
		insMS, delMS = append(insMS, ms(insD)), append(delMS, ms(delD))
		for _, st := range ins {
			labelEntries += st.LabelEntries
		}
		for _, st := range dels {
			labelEntries += st.RemovedLabelEntries + st.AddedLabelEntries
		}
		edges += 2 * len(b)
	}
	t = time.Now()
	if err := db.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	m.add("gdb.persist_s", time.Since(t).Seconds(), "s")
	m.add("gdb.insert_batch_ms", median(insMS), "ms")
	m.add("gdb.delete_batch_ms", median(delMS), "ms")
	m.add("gdb.label_entries_per_edge", ratio(float64(labelEntries), float64(edges)), "count")
	m.add("gdb.pages_written_per_edge", ratio(float64(db.IOStats().Sub(io0).Writes), float64(edges)), "count")
	return nil
}

// probeStorage times the storage layer's two hot calls on a pool and tree
// of the benchmark's own, so the numbers are the layer's and not a
// workload's: Fetch+Unpin of a resident page (a served tier-3 query makes
// tens of thousands) and a B+-tree point lookup.
func probeStorage(m *metrics, seed int64) error {
	const keys = 50000
	pool := storage.NewBufferPool(storage.NewMemPager(), 16<<20)
	tree, err := storage.NewBTree(pool)
	if err != nil {
		return err
	}
	key := func(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i)*2654435761) }
	for i := 0; i < keys; i++ {
		if err := tree.Insert(key(i), uint64(i)); err != nil {
			return err
		}
	}
	order := rand.New(rand.NewSource(seed ^ 0x51)).Perm(keys)
	d, err := perCall(keys, func(i int) error {
		v, ok, err := tree.Get(key(order[i]))
		if err == nil && (!ok || v != uint64(order[i])) {
			err = fmt.Errorf("btree lost key %d", order[i])
		}
		return err
	})
	if err != nil {
		return err
	}
	m.add("storage.btree_get_us", d/1e3, "us")
	d, err = perCall(1000000, func(int) error {
		f, err := pool.Fetch(tree.Root())
		if err == nil {
			pool.Unpin(f, false)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.add("storage.fetch_unpin_ns", d, "ns")
	return nil
}

// httpProbeRepeats is how often probeHTTP sends each query each way.
const httpProbeRepeats = 3

// probeHTTP measures what the HTTP front-end adds: each query is timed
// through Server.QueryPatternOpts in process and through POST /query from
// one client, and the overhead is the median over queries of the difference
// of the two medians. Both paths share the server's warm plan cache. It
// returns the mean in-process time per query in milliseconds: the untraced
// path the traced pass is compared with.
func probeHTTP(m *metrics, in *instance, qs []query) (float64, error) {
	c := httpClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	var diffs []float64
	var inprocSum float64
	for _, q := range qs {
		p, err := pattern.Parse(q.Pattern)
		if err != nil {
			return 0, err
		}
		body := prepare([]query{q}, nil)[0].body
		var inproc, overHTTP []float64
		for rep := 0; rep < httpProbeRepeats; rep++ {
			t := time.Now()
			if _, err := in.srv.QueryPatternOpts(context.Background(), p, exec.DPS, server.QueryOptions{Limit: q.Limit}); err != nil {
				return 0, fmt.Errorf("%s in process: %w", q.Name, err)
			}
			inproc = append(inproc, ms(time.Since(t)))
			inprocSum += inproc[rep]
			t = time.Now()
			if status, err := post(c, in.url+"/query", body, &buf); err != nil || status != 200 {
				return 0, fmt.Errorf("%s over HTTP: status %d: %v", q.Name, status, err)
			}
			overHTTP = append(overHTTP, ms(time.Since(t)))
		}
		diffs = append(diffs, median(overHTTP)-median(inproc))
	}
	m.add("server.http_overhead_ms", median(diffs), "ms")
	return inprocSum / float64(httpProbeRepeats*len(qs)), nil
}
