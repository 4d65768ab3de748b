package bench

import (
	"fmt"
	"time"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/storage"
	"fastmatch/internal/twohop"
	"fastmatch/internal/workload"
)

// Ablation experiments for the design choices DESIGN.md calls out. They are
// not paper artifacts; run them with `fgmbench -exp ablations` or by ID.

// AblationIDs lists the ablation experiment IDs.
var AblationIDs = []string{"ablation-order", "ablation-pool", "ablation-naive"}

// ablationScale is the mid ladder point, enough to show the effects without
// slow rebuilds (each ablation builds several database variants).
func (r *Runner) ablationScale() Scale { return Scales(r.Mult)[1] }

// AblationCenterOrder compares 2-hop center orderings: cover size, build
// time, and query time over the Figure 7(c) pattern.
func (r *Runner) AblationCenterOrder() (*Report, error) {
	rep := &Report{
		ID:     "ablation-order",
		Title:  "2-hop center ordering: cover size, build and query cost",
		Header: []string{"order", "|H|", "|H|/|V|", "build ms", "query ms", "query io"},
	}
	g := r.dataset(r.ablationScale()).Graph
	w := workload.ScalabilityGraph()
	for _, ord := range []twohop.CenterOrder{twohop.OrderDegreeProduct, twohop.OrderTopological, twohop.OrderRandom} {
		start := time.Now()
		cover := twohop.Compute(g, twohop.Options{Order: ord, Seed: 7})
		db, err := gdb.BuildFromIndex(g, cover, gdb.Options{})
		if err != nil {
			return nil, err
		}
		buildMS := float64(time.Since(start).Microseconds()) / 1000
		m, err := r.timeQuery(db, w.Pattern, exec.DPS)
		db.Close()
		if err != nil {
			return nil, err
		}
		st := cover.Stats()
		rep.AddRow(ord.String(), fmt.Sprintf("%d", st.Size), fmt.Sprintf("%.2f", st.Ratio),
			ms(buildMS), ms(m.ElapsedMS), fmt.Sprintf("%d", m.IO))
	}
	return rep, nil
}

// AblationPoolSize sweeps the buffer pool size (the paper fixes 1 MB;
// physical I/O shows the working-set crossover).
func (r *Runner) AblationPoolSize() (*Report, error) {
	rep := &Report{
		ID:     "ablation-pool",
		Title:  "buffer pool size sweep: logical vs physical I/O",
		Header: []string{"pool", "query ms", "logical io", "phys reads", "phys writes"},
	}
	g := r.dataset(r.ablationScale()).Graph
	w := workload.ScalabilityGraph()
	for _, poolBytes := range []int{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		m, io, err := r.timePooled(g, poolBytes, w.Pattern)
		if err != nil {
			return nil, err
		}
		rep.AddRow(fmt.Sprintf("%dKB", poolBytes>>10), ms(m.ElapsedMS),
			fmt.Sprintf("%d", m.IO), fmt.Sprintf("%d", io.Reads), fmt.Sprintf("%d", io.Writes))
	}
	return rep, nil
}

// timePooled is timeQuery (DPS) on a database of g whose pool is shrunk to
// poolBytes after the build, returning the pages the pool read and wrote
// too. One untimed run precedes the reps, so each timed rep starts from the
// pool a run of p leaves behind, and the reps must count the same logical
// and physical pages.
func (r *Runner) timePooled(g *graph.Graph, poolBytes int, p *pattern.Pattern) (Measure, storage.IOStats, error) {
	db, err := gdb.Build(g, gdb.Options{PoolBytes: 16 << 20})
	if err != nil {
		return Measure{}, storage.IOStats{}, err
	}
	defer db.Close()
	if err := db.ResizePool(poolBytes); err != nil {
		return Measure{}, storage.IOStats{}, err
	}
	if err := warmStatistics(db, p); err != nil {
		return Measure{}, storage.IOStats{}, err
	}
	best := Measure{ElapsedMS: -1}
	var first storage.IOStats
	for rep := -1; rep < r.reps(); rep++ {
		db.ClearCaches()
		db.ResetIOStats()
		start := time.Now()
		res, err := queryCounted(db, p, exec.DPS)
		if err != nil {
			return Measure{}, storage.IOStats{}, err
		}
		el := float64(time.Since(start).Microseconds()) / 1000
		io := db.IOStats()
		switch {
		case rep < 0:
			continue
		case rep == 0:
			first = io
		case io.Logical() != first.Logical() || io.Reads != first.Reads || io.Writes != first.Writes:
			return Measure{}, storage.IOStats{}, fmt.Errorf("bench: %v on a %d B pool counted %d logical, %d read, %d written pages in run %d, %d, %d, %d in run 1",
				p, poolBytes, io.Logical(), io.Reads, io.Writes, rep+1, first.Logical(), first.Reads, first.Writes)
		}
		if best.ElapsedMS < 0 || el < best.ElapsedMS {
			best = Measure{ElapsedMS: el, IO: io.Logical(), Rows: res.Len()}
		}
	}
	return best, first, nil
}

// AblationNaive compares the engine (DPS) against the index-free naive
// matcher (backtracking over a transitive closure) on the smallest ladder
// dataset — the "why build all this" baseline.
func (r *Runner) AblationNaive() (*Report, error) {
	rep := &Report{
		ID:     "ablation-naive",
		Title:  "engine (DPS) vs naive transitive-closure matcher, 20M dataset",
		Header: []string{"query", "DPS ms", "naive ms", "speedup", "rows"},
	}
	s := Scales(r.Mult)[0]
	db, err := r.db(s)
	if err != nil {
		return nil, err
	}
	g := r.dataset(s).Graph
	ws := []workload.Workload{
		workload.ScalabilityPath(),
		workload.ScalabilityTree(),
		workload.ScalabilityGraph(),
	}
	for _, w := range ws {
		m, err := r.timeQuery(db, w.Pattern, exec.DPS)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		naive, err := exec.NaiveMatch(g, w.Pattern)
		if err != nil {
			return nil, err
		}
		naiveMS := float64(time.Since(start).Microseconds()) / 1000
		if naive.Len() != m.Rows {
			return nil, fmt.Errorf("ablation-naive %s: naive %d rows != engine %d", w.Name, naive.Len(), m.Rows)
		}
		rep.AddRow(w.Name, ms(m.ElapsedMS), ms(naiveMS),
			fmt.Sprintf("%.1fx", naiveMS/m.ElapsedMS), fmt.Sprintf("%d", m.Rows))
	}
	return rep, nil
}
