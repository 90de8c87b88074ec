package catalog

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/storage"
)

func table(rows ...[]int64) *storage.Table {
	t := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "a", Type: storage.TypeInt},
		storage.Column{Name: "b", Type: storage.TypeInt},
	))
	for _, r := range rows {
		t.MustAppend(storage.Tuple{storage.Int(r[0]), storage.Int(r[1])})
	}
	return t
}

func TestRegisterLookup(t *testing.T) {
	c := New()
	c.Register("t1", table([]int64{1, 2}))
	c.Register("t2", table([]int64{1, 2}, []int64{3, 4}))
	e, err := c.Lookup("t1")
	if err != nil || e.Rows() != 1 {
		t.Fatalf("lookup t1: %v %v", e, err)
	}
	if _, err := c.Lookup("nope"); err == nil {
		t.Errorf("missing table should error")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "t1" || names[1] != "t2" {
		t.Errorf("Names = %v", names)
	}
}

func TestDistinctCached(t *testing.T) {
	c := New()
	e := c.Register("t", table([]int64{1, 1}, []int64{1, 2}, []int64{2, 2}))
	if d := e.Distinct(attrs.MakeSet(0)); d != 2 {
		t.Errorf("D(a) = %d", d)
	}
	if d := e.Distinct(attrs.MakeSet(0, 1)); d != 3 {
		t.Errorf("D(a,b) = %d", d)
	}
	// Second call hits the cache (same answer).
	if d := e.Distinct(attrs.MakeSet(0)); d != 2 {
		t.Errorf("cached D(a) = %d", d)
	}
	if d := e.Distinct(attrs.MakeSet()); d != 1 {
		t.Errorf("D(∅) = %d, want 1", d)
	}
}

func TestCostParams(t *testing.T) {
	c := New()
	e := c.Register("t", table([]int64{1, 2}, []int64{3, 4}))
	p := e.CostParams(64<<10, 4096)
	if p.TableTuples != 2 || p.MemBlocks != 16 || p.BlockSize != 4096 {
		t.Errorf("params = %+v", p)
	}
	if p.Distinct == nil || p.Distinct(attrs.MakeSet(0)) != 2 {
		t.Errorf("distinct estimator broken")
	}
	if e.Blocks(4096) < 1 {
		t.Errorf("blocks = %d", e.Blocks(4096))
	}
}

// TestGeneration: Register (including replacement) advances the catalog
// generation; lookups do not.
func TestGeneration(t *testing.T) {
	c := New()
	if g := c.Generation(); g != 0 {
		t.Fatalf("fresh catalog generation %d, want 0", g)
	}
	c.Register("t", table([]int64{1, 2}))
	c.Register("u", table([]int64{1, 2}))
	if g := c.Generation(); g != 2 {
		t.Fatalf("generation %d after two registrations, want 2", g)
	}
	if _, err := c.Lookup("t"); err != nil {
		t.Fatal(err)
	}
	c.Register("t", table([]int64{9, 9})) // replacement counts too
	if g := c.Generation(); g != 3 {
		t.Fatalf("generation %d after replacement, want 3", g)
	}
}

// TestUnknownTableError: Lookup failures carry the typed class the serving
// layer's 404 mapping depends on.
func TestUnknownTableError(t *testing.T) {
	c := New()
	_, err := c.Lookup("missing")
	if !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("err = %v, want ErrUnknownTable", err)
	}
	if !strings.Contains(err.Error(), `"missing"`) {
		t.Fatalf("err = %v, want the table name in the message", err)
	}
}

// TestLookupCaseInsensitive: table names fold like the dialect's column
// identifiers, so a serving layer's case-folding cache key and the catalog
// agree on which queries resolve.
func TestLookupCaseInsensitive(t *testing.T) {
	c := New()
	c.Register("Web_Sales", table([]int64{1, 2}))
	for _, name := range []string{"web_sales", "WEB_SALES", "Web_Sales"} {
		e, err := c.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if e.Name != "Web_Sales" {
			t.Fatalf("Lookup(%q).Name = %q", name, e.Name)
		}
	}
	if names := c.Names(); len(names) != 1 || names[0] != "Web_Sales" {
		t.Fatalf("Names() = %v", names)
	}
	// Re-registering under a different case replaces, not duplicates.
	c.Register("WEB_SALES", table([]int64{3, 4}))
	if names := c.Names(); len(names) != 1 {
		t.Fatalf("case variant duplicated the table: %v", names)
	}
}

// TestRegisterStub: schema-only entries answer the statistics accessors
// from injected TableStats, advance the generation like Register, cache
// the distinct estimator per set.
func TestRegisterStub(t *testing.T) {
	c := New()
	gen0 := c.Generation()
	calls := 0
	schema := storage.NewSchema(
		storage.Column{Name: "a", Type: storage.TypeInt},
		storage.Column{Name: "b", Type: storage.TypeInt},
	)
	c.RegisterStub("remote", schema, TableStats{
		Rows:  1000,
		Bytes: 64 << 10,
		Distinct: func(set attrs.Set) int64 {
			calls++
			return 77
		},
	})
	if c.Generation() != gen0+1 {
		t.Fatal("stub registration must advance the generation")
	}
	e, err := c.Lookup("REMOTE")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Stub() || e.Rows() != 1000 || e.ByteSize() != 64<<10 || e.Table().Len() != 0 {
		t.Fatalf("stub entry: rows=%d bytes=%d len=%d", e.Rows(), e.ByteSize(), e.Table().Len())
	}
	set := attrs.MakeSet(0)
	if d := e.Distinct(set); d != 77 {
		t.Fatalf("Distinct = %d, want 77", d)
	}
	if d := e.Distinct(set); d != 77 || calls != 1 {
		t.Fatalf("Distinct must cache per set: d=%d calls=%d", d, calls)
	}
	cp := e.CostParams(8192*4, 8192)
	if cp.TableBlocks != 8 || cp.TableTuples != 1000 {
		t.Fatalf("stub cost params: %+v", cp)
	}
	// Stats without an estimator degrade to zero, not a panic.
	c.RegisterStub("bare", schema, TableStats{Rows: 5, Bytes: 100})
	be, _ := c.Lookup("bare")
	if d := be.Distinct(set); d != 0 {
		t.Fatalf("estimator-less stub Distinct = %d, want 0", d)
	}
}

func TestAppendDataGeneration(t *testing.T) {
	c := New()
	e := c.Register("t", table([]int64{1, 2}))
	schemaGen := c.Generation()
	if g := e.DataGen(); g != 1 {
		t.Fatalf("initial data gen = %d, want 1", g)
	}
	old := e.Table()
	start, gen, err := c.Append("T", []storage.Tuple{
		{storage.Int(3), storage.Int(4)},
		{storage.Int(5), storage.Int(6)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != 1 || gen != 2 {
		t.Errorf("Append = (%d, %d), want (1, 2)", start, gen)
	}
	if c.Generation() != schemaGen {
		t.Errorf("append bumped the schema generation %d -> %d", schemaGen, c.Generation())
	}
	if e.Rows() != 3 || e.DataGen() != 2 {
		t.Errorf("rows=%d gen=%d after append", e.Rows(), e.DataGen())
	}
	// Old snapshot is frozen.
	if len(old.Rows) != 1 {
		t.Errorf("old snapshot grew to %d rows", len(old.Rows))
	}
	// atLeast lower-bounds the generation (cluster watermarks).
	_, gen, err = e.Append([]storage.Tuple{{storage.Int(7), storage.Int(8)}}, 9)
	if err != nil || gen != 9 {
		t.Fatalf("Append atLeast: gen=%d err=%v, want 9", gen, err)
	}
	_, gen, _ = e.Append([]storage.Tuple{{storage.Int(9), storage.Int(9)}}, 0)
	if gen != 10 {
		t.Errorf("gen after watermark jump = %d, want 10", gen)
	}
}

func TestAppendValidation(t *testing.T) {
	c := New()
	ft := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "i", Type: storage.TypeInt},
		storage.Column{Name: "f", Type: storage.TypeFloat},
		storage.Column{Name: "s", Type: storage.TypeString},
	))
	e := c.Register("ft", ft)
	// Int coerces into FLOAT; NULL fits everywhere.
	_, _, err := e.Append([]storage.Tuple{
		{storage.Int(1), storage.Int(2), storage.StringVal("x")},
		{storage.Null, storage.Null, storage.Null},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Table().Rows[0][1]
	if got.Kind() != storage.KindFloat || got.Float64() != 2 {
		t.Errorf("coerced value = %v (%s)", got, got.Kind())
	}
	cases := []storage.Tuple{
		{storage.Int(1), storage.Float(1)},                          // arity
		{storage.Float(1), storage.Float(1), storage.StringVal("")}, // float into INT
		{storage.Int(1), storage.StringVal("x"), storage.Null},      // string into FLOAT
		{storage.Int(1), storage.Float(1), storage.Int(3)},          // int into STRING
	}
	for i, row := range cases {
		if _, _, err := e.Append([]storage.Tuple{row}, 0); err == nil {
			t.Errorf("case %d: bad row accepted", i)
		}
	}
	if e.Rows() != 2 {
		t.Errorf("failed appends changed the table: %d rows", e.Rows())
	}
	if _, _, err := c.Append("nope", nil, 0); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("unknown table append: %v", err)
	}
}

func TestAppendStubStats(t *testing.T) {
	c := New()
	schema := storage.NewSchema(storage.Column{Name: "a", Type: storage.TypeInt})
	e := c.RegisterStub("s", schema, TableStats{Rows: 10, Bytes: 100})
	start, gen, err := e.Append([]storage.Tuple{{storage.Int(1)}, {storage.Int(2)}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if start != 10 || gen != 5 {
		t.Errorf("stub Append = (%d, %d), want (10, 5)", start, gen)
	}
	if e.Rows() != 12 {
		t.Errorf("stub rows = %d, want 12", e.Rows())
	}
	if e.ByteSize() <= 100 {
		t.Errorf("stub bytes = %d, want > 100", e.ByteSize())
	}
	if e.Table().Len() != 0 {
		t.Errorf("stub stored %d rows locally", e.Table().Len())
	}
}

func TestAppendInvalidatesDistinctCache(t *testing.T) {
	c := New()
	e := c.Register("t", table([]int64{1, 1}))
	if d := e.Distinct(attrs.MakeSet(0)); d != 1 {
		t.Fatalf("D(a) = %d", d)
	}
	if _, _, err := e.Append([]storage.Tuple{{storage.Int(2), storage.Int(2)}}, 0); err != nil {
		t.Fatal(err)
	}
	if d := e.Distinct(attrs.MakeSet(0)); d != 2 {
		t.Errorf("D(a) after append = %d, want 2", d)
	}
}
