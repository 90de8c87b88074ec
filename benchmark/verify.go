package main

import (
	"context"
	"fmt"
	"math"

	windowdb "repro"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/window"
)

// expected is one statement's correct output, as a row count plus the
// order-insensitive checksum (the wrapping sum of hashRow over the rows).
type expected struct {
	Rows int64  `json:"rows"`
	Sum  uint64 `json:"sum"`
}

// referenceEngine is the independent path expected results come from: a
// sequential engine that plans with the PSQL baseline (one sort per
// distinct window, no cover sets, no HS/SS) under a reorder budget nothing
// exceeds. It shares the window evaluator with the system under test but
// none of the optimizer, spill or reorder-selection decisions.
func referenceEngine(tables map[string]*storage.Table) *windowdb.Engine {
	eng := windowdb.New(windowdb.Config{Scheme: windowdb.SchemePSQL, SortMemBytes: 1 << 30, BlockSize: blockSize, Parallelism: 1})
	for name, t := range tables {
		eng.Register(name, t)
	}
	return eng
}

// expectations is everything a workload's operations are checked against.
type expectations struct {
	Stmts []expected    `json:"stmts,omitempty"` // per statement, query workloads
	App   *appendExpect `json:"app,omitempty"`   // append_subscribe
}

// computeExpected runs the reference pass for a set-up system.
func computeExpected(ctx context.Context, s *sut) (*expectations, error) {
	if s.app != nil {
		exp, err := appendReference(s.app)
		if err != nil {
			return nil, err
		}
		return &expectations{App: exp}, nil
	}
	ref := referenceEngine(s.tables)
	out := &expectations{Stmts: make([]expected, len(s.stmts))}
	for i, st := range s.stmts {
		sm := drain(ctx, ref, st.SQL, true)
		if sm.Err != nil {
			return nil, fmt.Errorf("reference %s: %w", st.ID, sm.Err)
		}
		out.Stmts[i] = expected{Rows: sm.Rows, Sum: sm.Sum}
		if st.Core != "" {
			if err := checkAgainstDefinition(ctx, s.tables[st.Table], st, s.sz.SampleRows); err != nil {
				return nil, fmt.Errorf("reference %s: %w", st.ID, err)
			}
		}
	}
	return out, nil
}

// want returns what operation sm should have produced.
func (e *expectations) want(sm sample) (expected, bool) {
	switch {
	case e.App != nil && sm.Kind == opQuery:
		x, ok := e.App.Query[sm.Slot]
		return x, ok
	case e.App != nil:
		return expected{Rows: sm.Rows}, true // delta size is enforced by the read protocol
	case sm.Stmt < len(e.Stmts):
		return e.Stmts[sm.Stmt], true
	}
	return expected{}, false
}

// failure explains why an operation counts as failed, or returns "" when
// it succeeded: an error, a refusal, a wrong row count, or (on checked
// operations) a wrong checksum.
func (e *expectations) failure(sm sample) string {
	if sm.Err != nil {
		return sm.Err.Error()
	}
	w, ok := e.want(sm)
	switch {
	case !ok:
		return "no expectation for the operation"
	case sm.Rows != w.Rows:
		return fmt.Sprintf("%d rows, want %d", sm.Rows, w.Rows)
	case sm.Checked && sm.Kind == opQuery && sm.Sum != w.Sum:
		return fmt.Sprintf("checksum %x, want %x", sm.Sum, w.Sum)
	}
	return ""
}

// checkAgainstDefinition compares the engine with window.Reference — the
// O(n²) evaluation by definition — on the first n rows of t: the
// statement's window items are run through a default (CSO) engine over the
// sample, and every derived value must equal the definition's, row by row
// (rows are identified by the unique ws_order_number).
func checkAgainstDefinition(ctx context.Context, t *storage.Table, st statement, n int) error {
	sample := storage.NewTable(t.Schema)
	sample.Rows = t.Rows[:min(n, t.Len())]
	eng := windowdb.New(windowdb.Config{Parallelism: 1})
	eng.Register(st.Table, sample)

	input := sample.Rows
	if st.Where != "" {
		res, err := eng.Query("SELECT * FROM " + st.Table + " WHERE " + st.Where)
		if err != nil {
			return fmt.Errorf("sample filter: %w", err)
		}
		input = res.Table.Rows
	}
	q, err := sql.Parse(st.Core)
	if err != nil {
		return fmt.Errorf("core statement: %w", err)
	}
	res, err := eng.Query(st.Core)
	if err != nil {
		return fmt.Errorf("core statement: %w", err)
	}
	if res.Table.Len() != len(input) {
		return fmt.Errorf("core statement returned %d rows over %d input rows", res.Table.Len(), len(input))
	}
	idCol := t.Schema.ColIndex("ws_order_number")
	pos := make(map[int64]int, len(input))
	for i, row := range input {
		pos[row[idCol].Int64()] = i
	}
	for c, item := range q.Items {
		if item.Window == nil {
			continue
		}
		spec, err := sql.BindWindowCall(item.Window, t.Schema, item.Alias)
		if err != nil {
			return fmt.Errorf("bind %s: %w", item.Alias, err)
		}
		want, err := window.Reference(input, spec)
		if err != nil {
			return fmt.Errorf("reference %s: %w", item.Alias, err)
		}
		for _, row := range res.Table.Rows {
			i, ok := pos[row[0].Int64()]
			if !ok {
				return fmt.Errorf("%s: output row %d is not an input row", item.Alias, row[0].Int64())
			}
			if !sameValue(row[c], want[i]) {
				return fmt.Errorf("%s: row %d is %v, the definition gives %v", item.Alias, row[0].Int64(), row[c], want[i])
			}
		}
	}
	return nil
}

// sameValue is equality up to float rounding: the definition sums a frame
// from scratch while the evaluator may slide it.
func sameValue(a, b storage.Value) bool {
	if a.Kind() == storage.KindFloat && b.Kind() == storage.KindFloat {
		x, y := a.Float64(), b.Float64()
		return x == y || math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	return a.Kind() == b.Kind() && storage.Equal(a, b)
}
