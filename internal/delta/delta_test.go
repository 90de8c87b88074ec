package delta

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/gen"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/window"
)

// ws builds a 3-column test table: k (partition), o (order), v (value).
func ws(rows ...[3]int64) *storage.Table {
	t := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "k", Type: storage.TypeInt},
		storage.Column{Name: "o", Type: storage.TypeInt},
		storage.Column{Name: "v", Type: storage.TypeInt},
	))
	for _, r := range rows {
		t.MustAppend(storage.Tuple{storage.Int(r[0]), storage.Int(r[1]), storage.Int(r[2])})
	}
	return t
}

// prep prepares src against a catalog holding table t as "t".
func prep(tb testing.TB, t *storage.Table, src string) (*sql.MaintainInfo, *catalog.Entry) {
	tb.Helper()
	cat := catalog.New()
	entry := cat.Register("t", t)
	r := &sql.Runner{Catalog: cat}
	p, err := r.Prepare(src)
	if err != nil {
		tb.Fatal(err)
	}
	info, err := p.Maintenance()
	if err != nil {
		tb.Fatal(err)
	}
	return info, entry
}

// applyAll drives batches through both a maintainer and a reference
// (bootstrap-from-scratch) evaluation, comparing the maintained state
// after every batch.
func checkMaintained(t *testing.T, src string, base *storage.Table, batches [][]storage.Tuple) *Update {
	t.Helper()
	info, entry := prep(t, base, src)
	snap, gen := entry.Snapshot()
	m, err := NewMaintainer(info, snap, gen)
	if err != nil {
		t.Fatal(err)
	}
	var last *Update
	for bi, rows := range batches {
		start, g, err := entry.Append(rows, 0)
		if err != nil {
			t.Fatal(err)
		}
		stored := entry.Table().Rows[start : start+int64(len(rows))]
		last, err = m.Apply(Batch{Table: "t", Rows: stored, StartRid: start, Gen: g})
		if err != nil {
			t.Fatal(err)
		}
		// Reference: bootstrap a fresh maintainer over the full table.
		refSnap, refGen := entry.Snapshot()
		ref, err := NewMaintainer(info, refSnap, refGen)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.rows) != len(ref.rows) {
			t.Fatalf("batch %d: %d maintained rows, reference %d", bi, len(m.rows), len(ref.rows))
		}
		for wi := range m.wfs {
			got, want := m.wfs[wi].vals, ref.wfs[wi].vals
			// The reference indexes positions in scan order; the maintained
			// rows are also in scan order (appends go to the end), so the
			// value slices align positionally.
			for pos := range got {
				if !storage.Identical(got[pos], want[pos]) {
					t.Errorf("batch %d wf %d row %d (rid %d): maintained %v (%s), reference %v (%s)",
						bi, wi, pos, m.rids[pos], got[pos], got[pos].Kind(), want[pos], want[pos].Kind())
				}
			}
		}
	}
	return last
}

func TestMaintainRankTail(t *testing.T) {
	base := ws([3]int64{1, 10, 5}, [3]int64{1, 20, 7}, [3]int64{2, 5, 1})
	u := checkMaintained(t, "SELECT k, o, rank() OVER (PARTITION BY k ORDER BY o) FROM t", base,
		[][]storage.Tuple{
			{{storage.Int(1), storage.Int(30), storage.Int(2)}, {storage.Int(1), storage.Int(30), storage.Int(3)}},
			{{storage.Int(2), storage.Int(6), storage.Int(4)}, {storage.Int(3), storage.Int(1), storage.Int(9)}},
		})
	if u.Upserted != 0 {
		t.Errorf("tail rank appends upserted %d old rows", u.Upserted)
	}
}

func TestMaintainRankMidPartitionUpserts(t *testing.T) {
	base := ws([3]int64{1, 10, 5}, [3]int64{1, 20, 7}, [3]int64{1, 30, 9})
	u := checkMaintained(t, "SELECT o, rank() OVER (PARTITION BY k ORDER BY o) FROM t", base,
		[][]storage.Tuple{{{storage.Int(1), storage.Int(15), storage.Int(1)}}})
	// Inserting o=15 shifts the ranks of o=20 and o=30: two upserts.
	if u.Upserted != 2 || u.Appended != 1 {
		t.Errorf("mid-partition insert: %d upserts, %d appends; want 2, 1", u.Upserted, u.Appended)
	}
	for _, row := range u.Rows {
		op := row[len(row)-2].Str()
		if op != OpAppend && op != OpUpsert {
			t.Errorf("unexpected op %q", op)
		}
	}
}

// TestMaintainFunctionMatrix — generated statements, cut down to what a
// subscription maintains (every column and the windows, the WHERE kept, no
// DISTINCT, ORDER BY or LIMIT), maintained while their table arrives as a
// base and three appended batches: after each batch the maintained result
// is the oracle's over everything appended so far.
func TestMaintainFunctionMatrix(t *testing.T) {
	hit := gen.Hits{}
	for i, c := range gen.Cases(150) {
		t.Run(fmt.Sprintf("q%d", i), func(t *testing.T) {
			s, n := c.Stmt.Chain(), c.Table.Len()
			hit.Windows(s)
			info, entry := prep(t, &storage.Table{Schema: c.Table.Schema, Rows: c.Table.Rows[:n/2]}, s.SQL())
			snap, g := entry.Snapshot()
			m, err := NewMaintainer(info, snap, g)
			if err != nil {
				t.Fatal(err)
			}
			for k, cut := range []int{3 * n / 4, 7 * n / 8, n} {
				start, g, err := entry.Append(c.Table.Rows[entry.Table().Len():cut], 0)
				if err != nil {
					t.Fatal(err)
				}
				base := len(m.rows)
				u, err := m.Apply(Batch{Table: "t", Rows: entry.Table().Rows[start:], StartRid: start, Gen: g})
				if err != nil {
					t.Fatal(err)
				}
				dispositions(hit, m, u, base)
				want, err := s.Project(entry.Table())
				if err != nil {
					t.Fatal(err)
				}
				got := m.Initial()
				for r := range got {
					got[r] = got[r][:len(got[r])-len(MetaColumns())]
				}
				if err := gen.SameMultiset(got, want); err != nil {
					t.Fatalf("%s, after batch %d: %v\n%s", c.Name, k+1, err, s.SQL())
				}
			}
		})
	}
	hit.Require(t, "patched", "recomputed")
}

// dispositions counts the paths one Apply took: "recomputed" when it
// upserted an old row, which only a partition's recompute does, and
// "patched" when it scanned fewer rows than recomputing every partition
// the batch (its rows from position base on) touched would have.
func dispositions(hit gen.Hits, m *Maintainer, u *Update, base int) {
	if u.Upserted > 0 {
		hit["recomputed"]++
	}
	var dirty int64
	for _, wf := range m.wfs {
		keys := map[string]bool{}
		for _, r := range m.rows[base:] {
			keys[partKey(r, wf.spec)] = true
		}
		for k := range keys {
			dirty += int64(len(wf.parts[k].positions))
		}
	}
	if u.RowsScanned < dirty {
		hit["patched"]++
	}
}

func TestMaintainSumIntToFloatRetype(t *testing.T) {
	// A float appended to an all-int SUM partition retypes every old
	// value from INT to FLOAT: the tail path must refuse and the full
	// recompute must upsert the old rows.
	base := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "k", Type: storage.TypeInt},
		storage.Column{Name: "o", Type: storage.TypeInt},
		storage.Column{Name: "v", Type: storage.TypeFloat},
	))
	base.MustAppend(storage.Tuple{storage.Int(1), storage.Int(1), storage.Float(2)})
	base.MustAppend(storage.Tuple{storage.Int(1), storage.Int(2), storage.Float(3)})
	u := checkMaintained(t, "SELECT k, sum(v) OVER (PARTITION BY k ORDER BY o) FROM t", base,
		[][]storage.Tuple{{{storage.Int(1), storage.Int(3), storage.Float(1.5)}}})
	if u.Appended != 1 {
		t.Errorf("appended %d", u.Appended)
	}
}

func TestMaintainNulls(t *testing.T) {
	base := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "k", Type: storage.TypeInt},
		storage.Column{Name: "o", Type: storage.TypeInt},
		storage.Column{Name: "v", Type: storage.TypeInt},
	))
	base.MustAppend(storage.Tuple{storage.Int(1), storage.Int(1), storage.Null})
	u := checkMaintained(t, "SELECT k, sum(v) OVER (PARTITION BY k ORDER BY o), count(v) OVER (PARTITION BY k ORDER BY o) FROM t", base,
		[][]storage.Tuple{
			{{storage.Int(1), storage.Int(2), storage.Null}},
			{{storage.Int(1), storage.Int(3), storage.Int(4)}, {storage.Int(1), storage.Null, storage.Int(9)}},
		})
	_ = u
}

func TestMaintainIncrementality(t *testing.T) {
	// A large base with a tail-landing batch must re-evaluate far fewer
	// rows than the table holds.
	rng := rand.New(rand.NewSource(42))
	var rows [][3]int64
	for i := 0; i < 5000; i++ {
		rows = append(rows, [3]int64{rng.Int63n(50), int64(i), rng.Int63n(100)})
	}
	base := ws(rows...)
	info, entry := prep(t, base, "SELECT k, rank() OVER (PARTITION BY k ORDER BY o), sum(v) OVER (PARTITION BY k ORDER BY o) FROM t")
	snap, gen := entry.Snapshot()
	m, err := NewMaintainer(info, snap, gen)
	if err != nil {
		t.Fatal(err)
	}
	var batch []storage.Tuple
	for i := 0; i < 100; i++ {
		batch = append(batch, storage.Tuple{storage.Int(rng.Int63n(50)), storage.Int(int64(10000 + i)), storage.Int(rng.Int63n(100))})
	}
	start, g, err := entry.Append(batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := m.Apply(Batch{Table: "t", Rows: batch, StartRid: start, Gen: g})
	if err != nil {
		t.Fatal(err)
	}
	if u.RowsScanned >= u.FullRows/10 {
		t.Errorf("maintenance scanned %d rows, full recompute %d: not incremental", u.RowsScanned, u.FullRows)
	}
	if len(u.Steps) != 2 || u.Metrics().Steps[0].Rows != u.Steps[0] {
		t.Errorf("metrics mismatch: %v", u.Steps)
	}
	if u.Appended != 100 || u.Upserted != 0 {
		t.Errorf("tail batch: %d appends, %d upserts", u.Appended, u.Upserted)
	}
}

func TestMaintainStaleBatchSkipped(t *testing.T) {
	base := ws([3]int64{1, 1, 1})
	info, entry := prep(t, base, "SELECT k FROM t")
	snap, gen := entry.Snapshot()
	m, err := NewMaintainer(info, snap, gen)
	if err != nil {
		t.Fatal(err)
	}
	u, err := m.Apply(Batch{Table: "t", Rows: []storage.Tuple{{storage.Int(9), storage.Int(9), storage.Int(9)}}, StartRid: 0, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Rows) != 0 || u.Watermark != gen {
		t.Errorf("stale batch applied: %+v", u)
	}
}

func TestMaintainNoOrderByRank(t *testing.T) {
	// rank() without ORDER BY: every row is a peer, rank 1 forever; the
	// tail path must handle the all-ties case.
	base := ws([3]int64{1, 1, 1}, [3]int64{1, 2, 2})
	checkMaintained(t, "SELECT k, rank() OVER (PARTITION BY k), row_number() OVER (PARTITION BY k) FROM t", base,
		[][]storage.Tuple{{{storage.Int(1), storage.Int(3), storage.Int(3)}}})
}

func TestHubPublishSubscribe(t *testing.T) {
	h := NewHub()
	s := h.Subscribe("T", 2)
	if n := h.Subscribers(); n != 1 {
		t.Fatalf("subscribers = %d", n)
	}
	h.Publish(Batch{Table: "t", Gen: 2})
	h.Publish(Batch{Table: "other", Gen: 3})
	b := <-s.Chan()
	if b.Gen != 2 {
		t.Errorf("got gen %d", b.Gen)
	}
	select {
	case b, ok := <-s.Chan():
		if ok {
			t.Errorf("unexpected delivery %+v", b)
		}
	default:
	}
	s.Close()
	s.Close() // idempotent
	if n := h.Subscribers(); n != 0 {
		t.Errorf("subscribers after close = %d", n)
	}
	if _, ok := <-s.Chan(); ok {
		t.Errorf("channel open after close")
	}
	if s.Err() != nil {
		t.Errorf("deliberate close recorded error %v", s.Err())
	}
}

func TestHubOverflowLags(t *testing.T) {
	h := NewHub()
	s := h.Subscribe("t", 1)
	h.Publish(Batch{Table: "t", Gen: 2})
	h.Publish(Batch{Table: "t", Gen: 3}) // buffer full: dropped
	if n := h.Subscribers(); n != 0 {
		t.Errorf("lagged sub still registered")
	}
	if b := <-s.Chan(); b.Gen != 2 {
		t.Errorf("buffered batch gen %d", b.Gen)
	}
	if _, ok := <-s.Chan(); ok {
		t.Errorf("channel still open after lag")
	}
	if s.Err() != ErrLagged {
		t.Errorf("Err = %v, want ErrLagged", s.Err())
	}
}

// TestMaintainRangeTies pins the subtle case: an append whose ordering
// key ties the partition's current maximum extends the old rows' RANGE
// CURRENT ROW frames, so running RANGE aggregates must take the full
// path (and upsert the peers), while ROWS running aggregates and rank
// take the tail path with no upserts.
func TestMaintainRangeTies(t *testing.T) {
	base := ws([3]int64{1, 10, 5}, [3]int64{1, 20, 7})
	u := checkMaintained(t, "SELECT k, sum(v) OVER (PARTITION BY k ORDER BY o) FROM t", base,
		[][]storage.Tuple{{{storage.Int(1), storage.Int(20), storage.Int(100)}}})
	// o=20 ties the old max: the old o=20 row's frame now includes the
	// new row, changing its sum from 12 to 112 — one upsert.
	if u.Upserted != 1 {
		t.Errorf("RANGE tie upserted %d rows, want 1", u.Upserted)
	}
	u2 := checkMaintained(t, "SELECT k, sum(v) OVER (PARTITION BY k ORDER BY o ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM t", base,
		[][]storage.Tuple{{{storage.Int(1), storage.Int(20), storage.Int(100)}}})
	if u2.Upserted != 0 {
		t.Errorf("ROWS tie upserted %d rows, want 0", u2.Upserted)
	}
	_ = window.Spec{}
}
