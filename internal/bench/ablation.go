package bench

import (
	"fmt"
	"time"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
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
		db, err := gdb.BuildFromIndex(g, cover, gdb.Options{CodeCacheEntries: 4096})
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
		db, err := gdb.Build(g, gdb.Options{PoolBytes: 16 << 20, CodeCacheEntries: 4096})
		if err != nil {
			return nil, err
		}
		if err := db.ResizePool(poolBytes); err != nil {
			db.Close()
			return nil, err
		}
		var m Measure
		var stats struct{ reads, writes int64 }
		for rep := 0; rep < r.reps(); rep++ {
			db.ClearCaches()
			db.ResetIOStats()
			start := time.Now()
			res, err := queryCounted(db, w.Pattern, exec.DPS)
			if err != nil {
				db.Close()
				return nil, err
			}
			el := float64(time.Since(start).Microseconds()) / 1000
			if m.ElapsedMS == 0 || el < m.ElapsedMS {
				io := db.IOStats()
				m = Measure{ElapsedMS: el, IO: io.Logical(), Rows: res.Len()}
				stats.reads, stats.writes = io.Reads, io.Writes
			}
		}
		db.Close()
		rep.AddRow(fmt.Sprintf("%dKB", poolBytes>>10), ms(m.ElapsedMS),
			fmt.Sprintf("%d", m.IO), fmt.Sprintf("%d", stats.reads), fmt.Sprintf("%d", stats.writes))
	}
	return rep, nil
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
