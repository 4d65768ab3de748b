package exec

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

// TestBudgetCrosscheck is the governor's end-to-end property: for every
// algorithm, worker degree (serial and GOMAXPROCS), and row limit, the
// budgeted run returns exactly the unbudgeted run's first-n rows, with the
// Truncated flag set iff rows were actually dropped. Runs under -race in
// the verify tier, so it also exercises the budget's concurrent accounting.
func TestBudgetCrosscheck(t *testing.T) {
	g := randomGraph(21, 160, 220, 5)
	snap := mustSnap(t, g)
	ctx := context.Background()

	for _, ps := range execPatterns {
		p := pattern.MustParse(ps)
		for _, algo := range []Algorithm{DP, DPS, DPSMerged} {
			plan, err := BuildPlanSnapConfig(snap, p, algo, PlanConfig{})
			if err != nil {
				t.Fatalf("%s/%v: %v", ps, algo, err)
			}
			full, err := RunSnapConfig(ctx, snap, plan, RunConfig{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", ps, algo, err)
			}
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				// The full run is row-identical at every degree (the
				// PR-2 determinism guarantee the pushdown builds on).
				again, err := RunSnapConfig(ctx, snap, plan, RunConfig{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%v w=%d: %v", ps, algo, workers, err)
				}
				if !reflect.DeepEqual(again.Rows, full.Rows) {
					t.Fatalf("%s/%v w=%d: unbudgeted run not row-identical to serial", ps, algo, workers)
				}
				for _, n := range []int{1, 2, 5, full.Len(), full.Len() + 3} {
					if n == 0 {
						continue // 0 means "no limit"
					}
					b := &rjoin.Budget{ResultRows: n}
					got, err := RunSnapConfig(ctx, snap, plan, RunConfig{Workers: workers, Budget: b})
					if err != nil {
						t.Fatalf("%s/%v w=%d limit=%d: %v", ps, algo, workers, n, err)
					}
					wantLen := min(n, full.Len())
					if got.Len() != wantLen {
						t.Fatalf("%s/%v w=%d limit=%d: %d rows, want %d",
							ps, algo, workers, n, got.Len(), wantLen)
					}
					if !reflect.DeepEqual(got.Rows, full.Rows[:wantLen]) {
						t.Fatalf("%s/%v w=%d limit=%d: rows are not the unbudgeted prefix",
							ps, algo, workers, n)
					}
					if wantTrunc := full.Len() > n; b.Truncated() != wantTrunc {
						t.Fatalf("%s/%v w=%d limit=%d: Truncated=%v, want %v",
							ps, algo, workers, n, b.Truncated(), wantTrunc)
					}
				}
			}
		}
	}
}

// TestBudgetKillsQuery: tight intermediate budgets fail the query with the
// typed errors, wrapped with the failing step's position.
func TestBudgetKillsQuery(t *testing.T) {
	g := randomGraph(22, 160, 220, 5)
	snap := mustSnap(t, g)
	ctx := context.Background()
	p := pattern.MustParse("A->C; B->C; C->D; D->E")
	plan, err := BuildPlanSnapConfig(snap, p, DPS, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunSnapConfig(ctx, snap, plan, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() == 0 {
		t.Fatal("empty result; pick another seed")
	}

	for _, workers := range []int{1, 0} {
		if _, err := RunSnapConfig(ctx, snap, plan, RunConfig{
			Workers: workers,
			Budget:  &rjoin.Budget{MaxTableRows: 1},
		}); !errors.Is(err, rjoin.ErrRowLimit) {
			t.Fatalf("workers=%d: got %v, want ErrRowLimit", workers, err)
		}
		if _, err := RunSnapConfig(ctx, snap, plan, RunConfig{
			Workers: workers,
			Budget:  &rjoin.Budget{MaxBytes: 8},
		}); !errors.Is(err, rjoin.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: got %v, want ErrBudgetExceeded", workers, err)
		}
	}

	// A generous budget lets the query through and reports its footprint.
	b := &rjoin.Budget{MaxTableRows: 1 << 20, MaxBytes: 1 << 30}
	got, err := RunSnapConfig(ctx, snap, plan, RunConfig{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != full.Len() {
		t.Fatalf("budgeted rows %d != unbudgeted %d", got.Len(), full.Len())
	}
	if b.Bytes() <= 0 || b.PeakRows() <= 0 {
		t.Fatalf("no accounting recorded: bytes=%d peak=%d", b.Bytes(), b.PeakRows())
	}
	if b.Truncated() {
		t.Fatal("Truncated set without a result-row limit")
	}
}
