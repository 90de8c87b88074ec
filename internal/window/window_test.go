package window

import (
	"math"
	"testing"

	"repro/internal/attrs"
	"repro/internal/storage"
	"repro/internal/stream"
)

// evaluateSlice is EvaluateSlice with an Evaluator and a column of its own.
func evaluateSlice(rows []storage.Tuple, spec Spec) ([]storage.Value, error) {
	col := make([]storage.Value, len(rows))
	return col, new(Evaluator).EvaluateSlice(rows, spec, col)
}

func TestMultiPartitionBoundaries(t *testing.T) {
	// Partitions must reset state: rank restarts at 1.
	rows := []storage.Tuple{
		{storage.Int(1), storage.Int(10), storage.Null, storage.Int(0)},
		{storage.Int(1), storage.Int(20), storage.Null, storage.Int(1)},
		{storage.Int(2), storage.Int(5), storage.Null, storage.Int(2)},
	}
	spec := Spec{Name: "r", Kind: Rank, Arg: -1, PK: attrs.MakeSet(0), OK: attrs.AscSeq(1)}
	out, err := Evaluate(stream.FromTuples(rows), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.CollectTuples(out)
	if err != nil {
		t.Fatal(err)
	}
	if got[2][4].Int64() != 1 {
		t.Errorf("rank did not reset at partition boundary: %v", got[2])
	}
}

func TestSumIntegerExactness(t *testing.T) {
	// Integer sums must stay exact (not routed through float64).
	big := int64(1) << 55
	rows := []storage.Tuple{
		{storage.Int(0), storage.Int(1), storage.Int(big), storage.Int(0)},
		{storage.Int(0), storage.Int(2), storage.Int(1), storage.Int(1)},
	}
	fr := WholePartitionFrame()
	vals, err := evaluateSlice(rows, Spec{Kind: Sum, Arg: 2, PK: attrs.MakeSet(0), Frame: &fr})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Kind() != storage.KindInt || vals[0].Int64() != big+1 {
		t.Errorf("integer sum lost exactness: %s", vals[0])
	}
}

func TestValidate(t *testing.T) {
	schema := storage.NewSchema(
		storage.Column{Name: "a", Type: storage.TypeInt},
		storage.Column{Name: "b", Type: storage.TypeInt},
	)
	bad := []Spec{
		{Kind: Sum, Arg: -1},                        // missing arg
		{Kind: Ntile, Arg: -1, N: 0},                // bad bucket count
		{Kind: NthValue, Arg: 0, N: 0},              // bad position
		{Kind: Rank, Arg: -1, OK: attrs.AscSeq(9)},  // attr out of range
		{Kind: Rank, Arg: -1, PK: attrs.MakeSet(7)}, // attr out of range
		{Kind: Sum, Arg: 0, OK: attrs.AscSeq(0, 1), Frame: &Frame{Mode: Range, Start: Bound{Type: Preceding, Offset: 1}, End: Bound{Type: CurrentRow}}}, // RANGE offset needs 1 key
	}
	for i, s := range bad {
		if err := s.Validate(schema); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
	good := Spec{Kind: Rank, Arg: -1, PK: attrs.MakeSet(0), OK: attrs.AscSeq(1)}
	if err := good.Validate(schema); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestSumOverStringsFails(t *testing.T) {
	rows := []storage.Tuple{{storage.Int(0), storage.Int(1), storage.StringVal("x"), storage.Int(0)}}
	if _, err := evaluateSlice(rows, Spec{Kind: Sum, Arg: 2, PK: attrs.MakeSet(0), OK: attrs.AscSeq(1)}); err == nil {
		t.Errorf("sum over strings should fail")
	}
}

func TestMinMaxOverStrings(t *testing.T) {
	rows := []storage.Tuple{
		{storage.Int(0), storage.Int(1), storage.StringVal("pear"), storage.Int(0)},
		{storage.Int(0), storage.Int(2), storage.StringVal("apple"), storage.Int(1)},
	}
	fr := WholePartitionFrame()
	vals, err := evaluateSlice(rows, Spec{Kind: Min, Arg: 2, PK: attrs.MakeSet(0), Frame: &fr})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Str() != "apple" {
		t.Errorf("min over strings = %s", vals[0])
	}
}

// TestPaperExample1 reproduces the sample output table of Example 1:
// rank() OVER (PARTITION BY dept ORDER BY salary DESC NULLS LAST) and
// rank() OVER (ORDER BY salary DESC NULLS LAST).
func TestPaperExample1(t *testing.T) {
	rows := []storage.Tuple{
		{storage.Int(1), storage.Null, storage.Null},
		{storage.Int(2), storage.Null, storage.Int(84000)},
		{storage.Int(3), storage.Int(2), storage.Null},
		{storage.Int(4), storage.Int(1), storage.Int(78000)},
		{storage.Int(5), storage.Int(1), storage.Int(75000)},
		{storage.Int(6), storage.Int(3), storage.Int(79000)},
		{storage.Int(7), storage.Int(2), storage.Int(51000)},
		{storage.Int(8), storage.Int(3), storage.Int(55000)},
		{storage.Int(9), storage.Int(1), storage.Int(53000)},
		{storage.Int(10), storage.Int(3), storage.Int(75000)},
	}
	salaryDesc := attrs.Seq{{Attr: 2, Desc: true}} // DESC NULLS LAST
	rankInDept := Spec{Name: "rank_in_dept", Kind: Rank, Arg: -1, PK: attrs.MakeSet(1), OK: salaryDesc}
	globalRank := Spec{Name: "globalrank", Kind: Rank, Arg: -1, OK: salaryDesc}

	inDept, err := Reference(rows, rankInDept)
	if err != nil {
		t.Fatal(err)
	}
	global, err := Reference(rows, globalRank)
	if err != nil {
		t.Fatal(err)
	}
	// Expected values per empnum from the paper's sample output.
	wantInDept := map[int64]int64{4: 1, 5: 2, 9: 3, 7: 1, 3: 2, 6: 1, 10: 2, 8: 3, 2: 1, 1: 2}
	wantGlobal := map[int64]int64{4: 3, 5: 4, 9: 7, 7: 8, 3: 9, 6: 2, 10: 4, 8: 6, 2: 1, 1: 9}
	for i, r := range rows {
		emp := r[0].Int64()
		if inDept[i].Int64() != wantInDept[emp] {
			t.Errorf("emp %d rank_in_dept = %s, want %d", emp, inDept[i], wantInDept[emp])
		}
		if global[i].Int64() != wantGlobal[emp] {
			t.Errorf("emp %d globalrank = %s, want %d", emp, global[i], wantGlobal[emp])
		}
	}
}

// TestOffsetsPastThePartition — an offset larger than any partition,
// math.MaxInt64 included, reaches past the partition's end or start like
// any other too-large offset; it must not wrap the row index. The
// expectations are written out by hand: one partition of 50 rows, value =
// position.
func TestOffsetsPastThePartition(t *testing.T) {
	const n = 50
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{storage.Int(0), storage.Int(int64(i)), storage.Int(int64(i)), storage.Int(int64(i))}
	}
	frame := func(start, end Bound) *Frame { return &Frame{Mode: Rows, Start: start, End: end} }
	current := Bound{Type: CurrentRow}
	for _, huge := range []int64{n, 1000, math.MaxInt64 - 1, math.MaxInt64} {
		following, preceding := Bound{Type: Following, Offset: huge}, Bound{Type: Preceding, Offset: huge}
		missing := storage.Int(-1)
		for _, tc := range []struct {
			name string
			spec Spec
			want func(i int) storage.Value
		}{
			{"count to huge following", Spec{Kind: Count, Arg: -1, Frame: frame(current, following)},
				func(i int) storage.Value { return storage.Int(int64(n - i)) }},
			{"count from huge preceding", Spec{Kind: Count, Arg: -1, Frame: frame(preceding, current)},
				func(i int) storage.Value { return storage.Int(int64(i + 1)) }},
			{"count between huge bounds", Spec{Kind: Count, Arg: -1, Frame: frame(preceding, following)},
				func(int) storage.Value { return storage.Int(n) }},
			{"sum from huge following", Spec{Kind: Sum, Arg: 2, Frame: frame(following, Bound{Type: UnboundedFollowing})},
				func(int) storage.Value { return storage.Null }},
			{"last_value to huge following", Spec{Kind: LastValue, Arg: 2, Frame: frame(current, following)},
				func(int) storage.Value { return storage.Int(n - 1) }},
			{"lead", Spec{Kind: Lead, Arg: 2, N: huge, Default: missing},
				func(int) storage.Value { return missing }},
			{"lag", Spec{Kind: Lag, Arg: 2, N: huge, Default: missing},
				func(int) storage.Value { return missing }},
			{"nth_value", Spec{Kind: NthValue, Arg: 2, N: huge, Frame: frame(Bound{Type: UnboundedPreceding}, Bound{Type: UnboundedFollowing})},
				func(int) storage.Value {
					if huge == n {
						return storage.Int(n - 1)
					}
					return storage.Null
				}},
		} {
			tc.spec.PK, tc.spec.OK = attrs.MakeSet(0), attrs.AscSeq(1)
			got, err := evaluateSlice(rows, tc.spec)
			if err != nil {
				t.Fatalf("%s, offset %d: %v", tc.name, huge, err)
			}
			for i, v := range got {
				if want := tc.want(i); !storage.Identical(v, want) {
					t.Fatalf("%s, offset %d: row %d = %s, want %s", tc.name, huge, i, v, want)
				}
			}
		}
	}
}

// TestRangeOffsetValidation: offset frames demand exactly one ordering
// key, and a string key is rejected at evaluation.
func TestRangeOffsetValidation(t *testing.T) {
	frame := &Frame{Mode: Range, Start: Bound{Type: Preceding, Offset: 1}, End: Bound{Type: CurrentRow}}
	spec := Spec{Kind: Sum, Arg: 2, PK: attrs.MakeSet(0), OK: attrs.Seq{{Attr: 1}, {Attr: 2}}, Frame: frame}
	schema := storage.NewSchema(
		storage.Column{Name: "g", Type: storage.TypeInt},
		storage.Column{Name: "k", Type: storage.TypeInt},
		storage.Column{Name: "v", Type: storage.TypeInt},
	)
	if err := spec.Validate(schema); err == nil {
		t.Error("two ordering keys must fail validation for RANGE offsets")
	}

	strRows := []storage.Tuple{
		{storage.Int(1), storage.StringVal("a"), storage.Int(1)},
		{storage.Int(1), storage.StringVal("b"), storage.Int(2)},
	}
	spec.OK = attrs.AscSeq(1)
	if _, err := evaluateSlice(strRows, spec); err == nil {
		t.Error("string ordering key must fail RANGE offset evaluation")
	}
}
