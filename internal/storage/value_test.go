package storage

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// genValues returns the edge cases of every kind plus n random values per
// kind. Strings run from empty to 64 KiB and carry NUL and high bytes.
func genValues(rng *rand.Rand, n int) []Value {
	vals := []Value{
		Null,
		Int(0), Int(1), Int(-1), Int(63), Int(64), Int(-64), Int(-65),
		Int(math.MinInt64), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()),
		Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.SmallestNonzeroFloat64), Float(math.MaxFloat64), Float(-1.5),
		StringVal(""), StringVal("\x00"), StringVal("a\x00\xffz"), StringVal("\xff\xfe"),
		StringVal(strings.Repeat("x", 127)), StringVal(strings.Repeat("y", 128)),
		StringVal(strings.Repeat("z", 64<<10)),
	}
	for i := 0; i < n; i++ {
		vals = append(vals, Int(int64(rng.Uint64())), Float(math.Float64frombits(rng.Uint64())))
		b := make([]byte, rng.Intn(1<<uint(rng.Intn(17)))) // 0 … 64 KiB, short ones most likely
		rng.Read(b)
		vals = append(vals, StringVal(string(b)))
	}
	return vals
}

// payload is what a value holds, read back through the accessors only.
type payload struct {
	kind Kind
	i    int64
	bits uint64
	s    string
}

func payloadOf(v Value) payload {
	p := payload{kind: v.Kind()}
	switch p.kind {
	case KindInt:
		p.i = v.Int64()
	case KindFloat:
		p.bits = math.Float64bits(v.Float64())
	case KindString:
		p.s = v.Str()
	}
	return p
}

func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 16", got)
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull || !Identical(zero, Null) {
		t.Fatalf("zero Value is %s, want NULL", zero.Kind())
	}
}

// TestSizeModelGolden pins the budget model. Value.Size and Tuple.Size
// decide run lengths, bucket spills and therefore block and comparison
// counts — the paper's currencies — so they must not follow the layout:
// the numbers below are what the 40-byte Value charged.
func TestSizeModelGolden(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want int
	}{
		{Null, 16}, {Int(0), 16}, {Int(math.MinInt64), 16}, {Float(1.5), 16},
		{StringVal(""), 24}, {StringVal("abc"), 27}, {StringVal("a\x00\xffz"), 28},
		{StringVal(strings.Repeat("p", 96)), 120},
	} {
		if got := c.v.Size(); got != c.want {
			t.Errorf("%s(%q).Size() = %d, want %d", c.v.Kind(), c.v, got, c.want)
		}
	}
	row := Tuple{Null, Int(7), Float(2.5), StringVal(""), StringVal("hello")}
	if got := row.Size(); got != 125 {
		t.Errorf("Tuple.Size() = %d, want 125", got)
	}
	if got := (Tuple{}).Size(); got != 24 {
		t.Errorf("empty Tuple.Size() = %d, want 24", got)
	}
	if got := EncodedSize(row); got != 22 {
		t.Errorf("EncodedSize = %d, want 22", got)
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20120827))
	vals := genValues(rng, 200)
	arena := NewTupleArena(2)
	for _, v := range vals {
		want := payloadOf(v)
		if !Identical(v, v) {
			t.Fatalf("%s %q not identical to itself", want.kind, v)
		}

		row := Tuple{v}
		enc := AppendTuple(nil, row)
		if len(enc) != EncodedSize(row) {
			t.Fatalf("%s: EncodedSize = %d, encoded %d bytes", want.kind, EncodedSize(row), len(enc))
		}
		hashed := enc
		if want.kind == KindFloat && want.bits == 1<<63 {
			hashed = AppendTuple(nil, Tuple{Float(0)}) // −0.0 is placed with the +0.0 it equals
		}
		h := HashSeedFNV
		for _, c := range hashed {
			h = (h ^ uint64(c)) * fnvPrime64
		}
		if got := HashValueFNV(HashSeedFNV, v); got != h {
			t.Fatalf("%s %q: HashValueFNV = %#x, FNV-1a of the encoding = %#x", want.kind, v, got, h)
		}

		for name, decode := range map[string]func([]byte) (Tuple, int, error){
			"DecodeTuple": DecodeTuple, "TupleArena.Decode": arena.Decode,
		} {
			got, n, err := decode(enc)
			if err != nil || n != len(enc) || len(got) != 1 {
				t.Fatalf("%s %s: n=%d len=%d err=%v", name, want.kind, n, len(got), err)
			}
			if p := payloadOf(got[0]); p != want {
				t.Fatalf("%s: decoded %+v, want %+v", name, p, want)
			}
			if !Identical(got[0], v) || got[0].Size() != v.Size() {
				t.Fatalf("%s: decoded %s value differs from the original", name, want.kind)
			}
		}
	}

	// A multi-column row through both decoders, back to back in one buffer.
	var buf []byte
	for i := 0; i+5 <= len(vals); i += 5 {
		buf = AppendTuple(buf, vals[i:i+5])
	}
	for off, i := 0, 0; off < len(buf); i += 5 {
		got, n, err := arena.Decode(buf[off:])
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if !Identical(got[j], vals[i+j]) {
				t.Fatalf("row %d col %d: %q, want %q", i/5, j, got[j], vals[i+j])
			}
		}
		off += n
	}
}

// TestHashGolden pins hashes computed by the 40-byte layout: a cluster
// whose nodes disagree on one of them places rows on different shards.
func TestHashGolden(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want uint64
	}{
		{Null, 0x82f2207b4e88cc4},
		{Int(0), 0xd0a6fd18672a1435},
		{Int(-1), 0xd0a6fc18672a1282},
		{Int(42), 0xd0a6a91867298579},
		{Int(math.MinInt64), 0xeb7f7071aa4bc863},
		{Int(math.MaxInt64), 0x5df27e3a9b990746},
		{Float(1.5), 0x78f77483c7acf39b},
		{Float(0), 0x78029183c6dcb96a},
		{Float(math.Copysign(0, -1)), 0x78029183c6dcb96a}, // placed as the +0.0 it equals; its own encoding hashes to 0x78021183c6dbdfea
		{Float(math.Inf(1)), 0x79123483c7c34e93},
		{StringVal(""), 0xd0adc918672fda87},
		{StringVal("abc"), 0xdfa2364fac19718e},
		{StringVal("a\x00\xffz"), 0x71c75b7ba76655ef},
	} {
		if got := HashValueFNV(HashSeedFNV, c.v); got != c.want {
			t.Errorf("HashValueFNV(%s %q) = %#x, want %#x", c.v.Kind(), c.v, got, c.want)
		}
	}
}

// TestCompareProperty: Compare is defined on every pair and antisymmetric,
// Equal agrees with it, and it is transitive away from NaN, which compares
// 0 with every numeric. (So does an int beyond 2^53 with the float it
// widens to; genValues pairs no such values.)
func TestCompareProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := genValues(rng, 12)
	isNaN := func(v Value) bool { return v.Kind() == KindFloat && math.IsNaN(v.Float64()) }
	for _, a := range vals {
		if Compare(a, a) != 0 || !Equal(a, a) {
			t.Fatalf("Compare(%q, itself) != 0", a)
		}
		for _, b := range vals {
			ab, ba := Compare(a, b), Compare(b, a)
			if ab < -1 || ab > 1 || ab != -ba {
				t.Fatalf("Compare(%q,%q)=%d but reversed %d", a, b, ab, ba)
			}
			if Equal(a, b) != (ab == 0) {
				t.Fatalf("Equal(%q,%q) disagrees with Compare", a, b)
			}
			if Identical(a, b) && ab != 0 {
				t.Fatalf("identical values %q, %q compare %d", a, b, ab)
			}
			if isNaN(a) || isNaN(b) {
				continue
			}
			for _, c := range vals {
				if !isNaN(c) && ab <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("not transitive: %q <= %q <= %q", a, b, c)
				}
			}
		}
	}
}

func TestIdentical(t *testing.T) {
	same := string([]byte("same")) // a second copy at another address
	for _, c := range []struct {
		a, b Value
		want bool
	}{
		{StringVal("same"), StringVal(same), true},
		{StringVal(""), StringVal(same[:0]), true},
		{StringVal("a"), StringVal("b"), false},
		{StringVal(""), Null, false},
		{Int(1), Float(1), false}, // Equal widens, Identical does not
		{Int(0), Null, false},
		{Float(0), Float(math.Copysign(0, -1)), false},
		{Float(math.NaN()), Float(math.NaN()), true},
		{Int(3), Int(3), true},
		{Null, Null, true},
	} {
		if got := Identical(c.a, c.b); got != c.want {
			t.Errorf("Identical(%s %q, %s %q) = %v", c.a.Kind(), c.a, c.b.Kind(), c.b, got)
		}
	}
	if !Equal(Int(1), Float(1)) {
		t.Error("Equal(Int(1), Float(1)) = false")
	}
}
