package bench

import (
	"io"
	"strconv"
	"testing"
)

// TestAllExperimentsSmoke runs every experiment end-to-end at a small scale
// and sanity-checks report structure plus the key expected shapes.
func TestAllExperimentsSmoke(t *testing.T) {
	r := NewRunner(0.1, 1)
	defer r.Close()
	reports, err := r.Run(PaperIDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 11 {
		t.Fatalf("got %d reports, want 11", len(reports))
	}
	byID := map[string]*Report{}
	for _, rep := range reports {
		byID[rep.ID] = rep
		if rep.Title == "" || len(rep.Header) == 0 || len(rep.Rows) == 0 {
			t.Fatalf("report %s incomplete", rep.ID)
		}
		rep.Print(io.Discard)
	}
	// Table 2 has 5 scales.
	if len(byID["table2"].Rows) != 5 {
		t.Fatalf("table2 rows = %d", len(byID["table2"].Rows))
	}
}

// TestExpectedShapes asserts the paper's qualitative timing finding at
// half scale: TSD is slower than DP in aggregate. The two timed shapes
// take each query's best of 3 runs, so a run slowed by parallel test
// packages does not flip them. TestIOCostEveryRun holds the I/O finding.
func TestExpectedShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := NewRunner(0.5, 1)
	defer r.Close()
	r.Reps = 3

	for _, id := range []string{"fig5a", "fig5b"} {
		rep, err := r.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if raceEnabled {
			// Race instrumentation slows each system by a different factor,
			// so elapsed-time shapes are not meaningful; the experiments
			// still run above to keep the harness itself race-checked.
			continue
		}
		var tsdTotal, dpTotal float64
		for _, row := range rep.Rows {
			tsd, _ := strconv.ParseFloat(row[1], 64)
			dp, _ := strconv.ParseFloat(row[3], 64)
			tsdTotal += tsd
			dpTotal += dp
		}
		if tsdTotal < dpTotal {
			t.Errorf("%s: TSD total %.1fms faster than DP total %.1fms", id, tsdTotal, dpTotal)
		}
	}
}

// TestIOCostEveryRun asserts the paper's I/O finding at half scale — DPS
// needs no more I/O than DP in aggregate over the graph-pattern batteries
// — and that the finding is reproducible: every query counts the same
// pages on every run (timeQuery fails otherwise), so a report does not
// depend on which run was fastest.
func TestIOCostEveryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := NewRunner(0.5, 1)
	defer r.Close()
	r.Reps = 2
	rep, err := r.ByID("iocost")
	if err != nil {
		t.Fatal(err)
	}
	var dpIO, dpsIO float64
	for _, row := range rep.Rows {
		dp, _ := strconv.ParseFloat(row[1], 64)
		dps, _ := strconv.ParseFloat(row[2], 64)
		dpIO += dp
		dpsIO += dps
	}
	if dpsIO > dpIO {
		t.Errorf("iocost: DPS aggregate I/O %.0f above DP %.0f", dpsIO, dpIO)
	}
}

func TestByIDUnknown(t *testing.T) {
	r := NewRunner(0.1, 1)
	defer r.Close()
	if _, err := r.ByID("nope"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestScalesLadder(t *testing.T) {
	s := Scales(1)
	if len(s) != 5 || s[0].Nodes != 20000 || s[4].Nodes != 100000 {
		t.Fatalf("ladder = %+v", s)
	}
	h := Scales(0.5)
	if h[0].Nodes != 10000 {
		t.Fatalf("half ladder = %+v", h)
	}
	if d := Scales(0); d[0].Nodes != 20000 {
		t.Fatalf("zero mult should default: %+v", d)
	}
}

func TestReportPrint(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", PaperClaim: "c", Header: []string{"a", "bb"}}
	rep.AddRow("1", "2")
	rep.Print(io.Discard)
	if len(rep.Rows) != 1 {
		t.Fatal("AddRow failed")
	}
}

// TestAblationsSmoke runs every ablation at small scale.
func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := NewRunner(0.1, 1)
	defer r.Close()
	reports, err := r.Run(AblationIDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(AblationIDs) {
		t.Fatalf("got %d ablation reports, want %d", len(reports), len(AblationIDs))
	}
	for _, rep := range reports {
		if len(rep.Rows) == 0 {
			t.Fatalf("ablation %s produced no rows", rep.ID)
		}
		rep.Print(io.Discard)
	}
}
