package exec

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

// TestBudgetCrosscheck is the governor's end-to-end property: for every
// algorithm and row limit, the budgeted run returns exactly the unbudgeted
// run's first-n rows, with the Truncated flag set iff rows were actually
// dropped.
func TestBudgetCrosscheck(t *testing.T) {
	g := randomGraph(21, 160, 220, 5)
	snap := mustSnap(t, g)
	ctx := context.Background()

	for _, ps := range execPatterns {
		p := pattern.MustParse(ps)
		for _, algo := range []Algorithm{DP, DPS} {
			plan, err := BuildPlanSnapConfig(snap, p, algo, PlanConfig{})
			if err != nil {
				t.Fatalf("%s/%v: %v", ps, algo, err)
			}
			full, err := RunSnapConfig(ctx, snap, plan, RunConfig{})
			if err != nil {
				t.Fatalf("%s/%v: %v", ps, algo, err)
			}
			for _, n := range []int{1, 2, 5, full.Len(), full.Len() + 3} {
				if n == 0 {
					continue // 0 means "no limit"
				}
				b := &rjoin.Budget{ResultRows: n}
				got, err := RunSnapConfig(ctx, snap, plan, RunConfig{Budget: b})
				if err != nil {
					t.Fatalf("%s/%v limit=%d: %v", ps, algo, n, err)
				}
				wantLen := min(n, full.Len())
				if got.Len() != wantLen {
					t.Fatalf("%s/%v limit=%d: %d rows, want %d", ps, algo, n, got.Len(), wantLen)
				}
				if !reflect.DeepEqual(got.Rows, full.Rows[:wantLen]) {
					t.Fatalf("%s/%v limit=%d: rows are not the unbudgeted prefix", ps, algo, n)
				}
				if wantTrunc := full.Len() > n; b.Truncated() != wantTrunc {
					t.Fatalf("%s/%v limit=%d: Truncated=%v, want %v", ps, algo, n, b.Truncated(), wantTrunc)
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

	if _, err := RunSnapConfig(ctx, snap, plan, RunConfig{Budget: &rjoin.Budget{MaxTableRows: 1}}); !errors.Is(err, rjoin.ErrRowLimit) {
		t.Fatalf("got %v, want ErrRowLimit", err)
	}
	if _, err := RunSnapConfig(ctx, snap, plan, RunConfig{Budget: &rjoin.Budget{MaxBytes: 8}}); !errors.Is(err, rjoin.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
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
