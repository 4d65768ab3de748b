package rjoin

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Typed budget errors. Both survive the executor's step wrapping, so
// callers classify them with errors.Is.
var (
	// ErrRowLimit reports an intermediate temporal table that exceeded the
	// query's row budget (Budget.MaxTableRows).
	ErrRowLimit = errors.New("rjoin: intermediate row budget exceeded")
	// ErrBudgetExceeded reports a query whose cumulative intermediate-result
	// allocation exceeded its byte budget (Budget.MaxBytes).
	ErrBudgetExceeded = errors.New("rjoin: intermediate byte budget exceeded")
)

// Budget is a per-query resource governor. It bounds what a single query
// may materialise while executing a plan: the final result's row count
// (a pushed-down LIMIT that truncates instead of failing), any
// intermediate temporal table's rows, and the cumulative bytes of
// intermediate rows allocated across all operators. Deadlines are not part
// of the budget — they ride the context, as before.
//
// Accounting happens where rows are produced (HPSJ's center cross-products
// and its output, Fetch's per-row expansions) and counts their
// logical size, 4 bytes per cell, whether the rows are written out or — the
// plan's last expansion — left factorised in the Result. A Fetch that
// absorbed the filters following it (FetchFiltered) is charged, and its
// row counts are checked and noted, for its whole expansion — the rows it
// would have written had the filters run after it — not for the survivors,
// so a plan costs the same fused or step by step. Checks sit in the
// operators' cancellation polls and at the end of every operator, and a
// failed check returns the typed error from the operator.
// All methods are safe for concurrent use and safe on a nil *Budget (every
// check passes), so unbudgeted paths pay only a nil test.
type Budget struct {
	// ResultRows, when > 0, caps the rows of the final query result. The
	// executor pushes it into the plan's last operator, which stops
	// producing once the limit is definitively exceeded and truncates its
	// output; Truncated reports whether rows were cut. The first ResultRows
	// rows are exactly the unbudgeted run's prefix.
	ResultRows int
	// MaxTableRows, when > 0, fails the query with ErrRowLimit as soon as
	// any intermediate temporal table exceeds this many rows.
	MaxTableRows int
	// MaxBytes, when > 0, fails the query with ErrBudgetExceeded once the
	// cumulative bytes of intermediate rows allocated by the query exceed
	// it. Filters and selections share their input's rows and charge
	// nothing; row-producing operators (HPSJ, Fetch) charge as they emit.
	MaxBytes int64

	bytes     atomic.Int64
	peakRows  atomic.Int64
	truncated atomic.Bool
}

// AddBytes records n bytes of intermediate-result allocation without
// checking the cap (checks run at the next poll or operator end).
func (b *Budget) AddBytes(n int64) {
	if b == nil {
		return
	}
	b.bytes.Add(n)
}

// ChargeBytes records n bytes and immediately checks the byte cap: callers
// use it as a pre-flight check before a large allocation (e.g. a center's
// cross product) so the query dies before the damage, not after.
func (b *Budget) ChargeBytes(n int64) error {
	if b == nil {
		return nil
	}
	b.bytes.Add(n)
	return b.CheckBytes()
}

// CheckBytes returns ErrBudgetExceeded once recorded bytes pass MaxBytes.
func (b *Budget) CheckBytes() error {
	if b == nil || b.MaxBytes <= 0 {
		return nil
	}
	if n := b.bytes.Load(); n > b.MaxBytes {
		return fmt.Errorf("%w (%d bytes > budget %d)", ErrBudgetExceeded, n, b.MaxBytes)
	}
	return nil
}

// overBytes reports whether charging n more bytes would pass MaxBytes.
func (b *Budget) overBytes(n int64) bool {
	return b != nil && b.MaxBytes > 0 && b.bytes.Load()+n > b.MaxBytes
}

// CheckRows returns ErrRowLimit when an intermediate table holds more than
// MaxTableRows rows.
func (b *Budget) CheckRows(n int) error {
	if b == nil || b.MaxTableRows <= 0 || n <= b.MaxTableRows {
		return nil
	}
	return fmt.Errorf("%w (%d rows > budget %d)", ErrRowLimit, n, b.MaxTableRows)
}

// NoteRows records an intermediate table size for the peak-rows statistic.
func (b *Budget) NoteRows(n int) {
	if b == nil {
		return
	}
	v := int64(n)
	for {
		cur := b.peakRows.Load()
		if v <= cur || b.peakRows.CompareAndSwap(cur, v) {
			return
		}
	}
}

// MarkTruncated records that result rows beyond ResultRows were dropped.
func (b *Budget) MarkTruncated() {
	if b != nil {
		b.truncated.Store(true)
	}
}

// Truncated reports whether the result was cut at ResultRows.
func (b *Budget) Truncated() bool { return b != nil && b.truncated.Load() }

// Bytes returns the cumulative intermediate-result bytes charged so far.
func (b *Budget) Bytes() int64 {
	if b == nil {
		return 0
	}
	return b.bytes.Load()
}

// PeakRows returns the largest intermediate table size noted so far.
func (b *Budget) PeakRows() int64 {
	if b == nil {
		return 0
	}
	return b.peakRows.Load()
}
