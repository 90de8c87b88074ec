package storage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/attrs"
)

func TestValueCompareTotalOrder(t *testing.T) {
	vals := []Value{
		Null, Int(-5), Int(0), Int(3), Float(2.5), Float(3.0),
		StringVal(""), StringVal("a"), StringVal("b"),
	}
	// Antisymmetry and transitivity over all triples.
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%s,%s) not antisymmetric", a, b)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("Compare not transitive on %s,%s,%s", a, b, c)
				}
			}
		}
	}
	if Compare(Int(3), Float(3.0)) != 0 {
		t.Errorf("cross-kind numeric equality broken")
	}
	if Compare(Int(2), Float(2.5)) != -1 {
		t.Errorf("cross-kind numeric order broken")
	}
}

func TestNullOrdering(t *testing.T) {
	a := Tuple{Null}
	b := Tuple{Int(1)}
	asc := attrs.Elem{Attr: 0}
	if CompareAt(a, b, asc) != 1 {
		t.Errorf("nulls-last ascending: NULL should sort after values")
	}
	nf := attrs.Elem{Attr: 0, NullsFirst: true}
	if CompareAt(a, b, nf) != -1 {
		t.Errorf("nulls-first: NULL should sort before values")
	}
	desc := attrs.Elem{Attr: 0, Desc: true}
	if CompareAt(b, Tuple{Int(2)}, desc) != 1 {
		t.Errorf("descending order broken")
	}
	// NULL placement is direction-independent.
	if CompareAt(a, b, desc) != 1 {
		t.Errorf("nulls-last descending: NULL should still sort last")
	}
}

func randValue(rng *rand.Rand) Value {
	switch rng.Intn(4) {
	case 0:
		return Null
	case 1:
		return Int(rng.Int63n(1<<40) - 1<<39)
	case 2:
		return Float(rng.NormFloat64() * 1e6)
	default:
		n := rng.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return StringVal(string(b))
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(8)
		tup := make(Tuple, n)
		for j := range tup {
			tup[j] = randValue(rng)
		}
		enc := AppendTuple(nil, tup)
		if len(enc) != EncodedSize(tup) {
			t.Fatalf("EncodedSize %d != actual %d for %s", EncodedSize(tup), len(enc), tup)
		}
		dec, consumed, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if consumed != len(enc) {
			t.Fatalf("consumed %d of %d", consumed, len(enc))
		}
		if len(dec) != len(tup) {
			t.Fatalf("arity %d != %d", len(dec), len(tup))
		}
		for j := range tup {
			if tup[j].Kind() == KindFloat && math.IsNaN(tup[j].Float64()) {
				continue
			}
			if !Equal(dec[j], tup[j]) {
				t.Fatalf("value %d: %s != %s", j, dec[j], tup[j])
			}
		}
	}
}

func TestCodecBackToBack(t *testing.T) {
	tuples := []Tuple{
		{Int(1), StringVal("x")},
		{Null, Float(2.5)},
		{Int(-7)},
	}
	var buf []byte
	for _, tu := range tuples {
		buf = AppendTuple(buf, tu)
	}
	pos := 0
	for i, want := range tuples {
		got, n, err := DecodeTuple(buf[pos:])
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		pos += n
		for j := range want {
			if !Equal(got[j], want[j]) {
				t.Fatalf("tuple %d col %d: %s != %s", i, j, got[j], want[j])
			}
		}
	}
	if pos != len(buf) {
		t.Fatalf("trailing bytes: %d of %d consumed", pos, len(buf))
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := DecodeTuple([]byte{}); err == nil {
		t.Errorf("empty buffer should fail")
	}
	// Truncated string payload.
	enc := AppendTuple(nil, Tuple{StringVal("hello")})
	if _, _, err := DecodeTuple(enc[:len(enc)-2]); err == nil {
		t.Errorf("truncated buffer should fail")
	}
	if _, _, err := DecodeTuple([]byte{1, 99}); err == nil {
		t.Errorf("unknown kind should fail")
	}
}

func TestCompareSeqQuick(t *testing.T) {
	// Sorting by CompareSeq then checking SortedOn is self-consistent.
	err := quick.Check(func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]Tuple, int(n%50)+2)
		for i := range rows {
			rows[i] = Tuple{Int(rng.Int63n(5)), Int(rng.Int63n(5))}
		}
		key := attrs.AscSeq(0, 1)
		tbl := &Table{Schema: NewSchema(Column{Name: "a"}, Column{Name: "b"}), Rows: rows}
		tbl.SortBy(key)
		return SortedOn(tbl.Rows, key)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestEqualOn(t *testing.T) {
	a := Tuple{Int(1), Int(2), Null}
	b := Tuple{Int(1), Int(3), Null}
	if !EqualOn(a, b, attrs.MakeSet(0, 2)) {
		t.Errorf("EqualOn should treat NULL = NULL")
	}
	if EqualOn(a, b, attrs.MakeSet(1)) {
		t.Errorf("EqualOn wrong on differing column")
	}
	if !EqualOn(a, b, attrs.MakeSet()) {
		t.Errorf("EqualOn over empty set is vacuously true")
	}
	// Once per row in partition and segment detection: no set.IDs() slice.
	set := attrs.MakeSet(0, 2)
	if n := testing.AllocsPerRun(100, func() { EqualOn(a, b, set) }); n != 0 {
		t.Errorf("EqualOn allocates %v objects per call", n)
	}
}

func TestTableHelpers(t *testing.T) {
	tbl := NewTable(NewSchema(Column{Name: "a", Type: TypeInt}, Column{Name: "b", Type: TypeInt}))
	for i := 0; i < 10; i++ {
		tbl.MustAppend(Tuple{Int(int64(i % 3)), Int(int64(i))})
	}
	if tbl.Len() != 10 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if got := tbl.DistinctCount(attrs.MakeSet(0)); got != 3 {
		t.Errorf("DistinctCount(a) = %d, want 3", got)
	}
	if got := tbl.DistinctCount(attrs.MakeSet(0, 1)); got != 10 {
		t.Errorf("DistinctCount(a,b) = %d, want 10", got)
	}
	if err := tbl.Append(Tuple{Int(1)}); err == nil {
		t.Errorf("arity mismatch not rejected")
	}
	if tbl.Schema.ColIndex("B") != 1 {
		t.Errorf("ColIndex should be case-insensitive")
	}
	if tbl.Schema.ColIndex("missing") != -1 {
		t.Errorf("missing column should return -1")
	}
	clone := tbl.Clone()
	clone.Rows[0] = Tuple{Int(99), Int(99)}
	if tbl.Rows[0][0].Int64() == 99 {
		t.Errorf("Clone aliases rows slice")
	}
}
