package window

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/attrs"
	"repro/internal/storage"
	"repro/internal/stream"
)

// arrange sorts rows into matching order for spec (PK then OK), the
// precondition of the streaming evaluator.
func arrange(rows []storage.Tuple, spec Spec) []storage.Tuple {
	t := &storage.Table{Schema: nil, Rows: append([]storage.Tuple(nil), rows...)}
	t.SortBy(spec.PK.AscSeq().Concat(spec.OK))
	return t.Rows
}

// checkAgainstReference evaluates spec both ways and compares per original
// row (identified by the tag in column tagCol).
func checkAgainstReference(t *testing.T, rows []storage.Tuple, spec Spec, tagCol int) {
	t.Helper()
	wantByTag := map[int64]storage.Value{}
	want, err := Reference(rows, spec)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for i, r := range rows {
		wantByTag[r[tagCol].Int64()] = want[i]
	}

	arranged := arrange(rows, spec)
	out, err := Evaluate(stream.FromTuples(arranged), spec)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	got, err := stream.CollectTuples(out)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(got) != len(rows) {
		t.Fatalf("row count %d != %d", len(got), len(rows))
	}
	for _, r := range got {
		tag := r[tagCol].Int64()
		gotVal := r[len(r)-1]
		wantVal, ok := wantByTag[tag]
		if !ok {
			t.Fatalf("unknown tag %d", tag)
		}
		if !storage.Equal(gotVal, wantVal) {
			t.Fatalf("%s: row tag %d: got %s want %s", spec.Kind, tag, gotVal, wantVal)
		}
	}
}

// evaluateSlice is EvaluateSlice with an Evaluator and a column of its own.
func evaluateSlice(rows []storage.Tuple, spec Spec) ([]storage.Value, error) {
	col := make([]storage.Value, len(rows))
	return col, new(Evaluator).EvaluateSlice(rows, spec, col)
}

// TestOneEvaluatorAcrossFunctions — one Evaluator runs every function, into
// a column and into the rows, one after another over tables whose largest
// partition grows and shrinks, as a chain's evaluator does: each result
// still equals the reference, so nothing a buffer kept from the function
// before leaks into the next.
func TestOneEvaluatorAcrossFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var ev Evaluator
	for trial := 0; trial < 20; trial++ {
		rows := randRows(rng, 1+rng.Intn(150))
		for _, kind := range []Kind{Max, Sum, RowNumber, Avg, Rank, Min, Count, CumeDist, FirstValue, Lead, Ntile, LastValue} {
			spec := baseSpec(kind)
			spec.N = 2
			if !kind.needsArg() && (kind != Count || trial%2 == 0) {
				spec.Arg = -1
			}
			if trial%3 == 0 {
				fr := Frame{Mode: Rows, Start: Bound{Type: Preceding, Offset: 3}, End: Bound{Type: Following, Offset: 1}}
				spec.Frame = &fr
			}
			want, err := Reference(rows, spec)
			if err != nil {
				t.Fatal(err)
			}
			wantByTag := map[int64]storage.Value{}
			for i, r := range rows {
				wantByTag[r[3].Int64()] = want[i]
			}
			arranged := arrange(rows, spec)
			col := make([]storage.Value, len(arranged))
			if err := ev.EvaluateSlice(arranged, spec, col); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			extended := make([]storage.Tuple, len(arranged))
			for i, r := range arranged {
				extended[i] = r.Clone()
			}
			if err := ev.ExtendSlice(extended, spec); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			for i, r := range arranged {
				w := wantByTag[r[3].Int64()]
				if !storage.Identical(col[i], w) || !storage.Identical(extended[i][len(r)], w) {
					t.Fatalf("trial %d %s: row tag %d: column %s, extended %s, reference %s", trial, kind, r[3].Int64(), col[i], extended[i][len(r)], w)
				}
			}
		}
	}
	if err := ev.EvaluateSlice(make([]storage.Tuple, 3), baseSpec(RowNumber), make([]storage.Value, 2)); err == nil {
		t.Error("a column shorter than the rows must fail")
	}
}

func randRows(rng *rand.Rand, n int) []storage.Tuple {
	rows := make([]storage.Tuple, n)
	for i := range rows {
		var v storage.Value
		switch rng.Intn(5) {
		case 0:
			v = storage.Null
		default:
			v = storage.Int(rng.Int63n(50))
		}
		rows[i] = storage.Tuple{
			storage.Int(rng.Int63n(4)),  // partition col
			storage.Int(rng.Int63n(10)), // order col
			v,                           // value col (with NULLs)
			storage.Int(int64(i)),       // tag
		}
	}
	return rows
}

func baseSpec(kind Kind) Spec {
	return Spec{
		Name: "w",
		Kind: kind,
		Arg:  2,
		PK:   attrs.MakeSet(0),
		OK:   attrs.AscSeq(1),
	}
}

func TestAllFunctionsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kinds := []Kind{
		RowNumber, Rank, DenseRank, PercentRank, CumeDist,
		FirstValue, LastValue, Count, Sum, Avg, Min, Max,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			for trial := 0; trial < 25; trial++ {
				rows := randRows(rng, 1+rng.Intn(120))
				spec := baseSpec(kind)
				if kind == RowNumber || kind == Rank || kind == DenseRank ||
					kind == PercentRank || kind == CumeDist || kind == Count {
					spec.Arg = -1
					if kind == Count && trial%2 == 0 {
						spec.Arg = 2 // count(col) half the time
					}
				}
				checkAgainstReference(t, rows, spec, 3)
			}
		})
	}
}

func TestNtileLeadLagNth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		rows := randRows(rng, 1+rng.Intn(80))
		nt := baseSpec(Ntile)
		nt.Arg = -1
		nt.N = int64(1 + rng.Intn(7))
		checkAgainstReference(t, rows, nt, 3)

		lead := baseSpec(Lead)
		lead.N = int64(rng.Intn(4))
		lead.Default = storage.Int(-999)
		checkAgainstReference(t, rows, lead, 3)

		lag := baseSpec(Lag)
		lag.N = int64(1 + rng.Intn(3))
		checkAgainstReference(t, rows, lag, 3)

		nth := baseSpec(NthValue)
		nth.N = int64(1 + rng.Intn(5))
		checkAgainstReference(t, rows, nth, 3)
	}
}

func TestFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	frames := []Frame{
		{Mode: Rows, Start: Bound{Type: UnboundedPreceding}, End: Bound{Type: CurrentRow}},
		{Mode: Rows, Start: Bound{Type: Preceding, Offset: 2}, End: Bound{Type: CurrentRow}},
		{Mode: Rows, Start: Bound{Type: Preceding, Offset: 3}, End: Bound{Type: Following, Offset: 1}},
		{Mode: Rows, Start: Bound{Type: CurrentRow}, End: Bound{Type: UnboundedFollowing}},
		{Mode: Rows, Start: Bound{Type: Following, Offset: 1}, End: Bound{Type: Following, Offset: 3}},
		{Mode: Rows, Start: Bound{Type: UnboundedPreceding}, End: Bound{Type: UnboundedFollowing}},
		{Mode: Range, Start: Bound{Type: UnboundedPreceding}, End: Bound{Type: CurrentRow}},
		{Mode: Range, Start: Bound{Type: CurrentRow}, End: Bound{Type: UnboundedFollowing}},
		{Mode: Range, Start: Bound{Type: Preceding, Offset: 2}, End: Bound{Type: CurrentRow}},
		{Mode: Range, Start: Bound{Type: Preceding, Offset: 1}, End: Bound{Type: Following, Offset: 1}},
	}
	kinds := []Kind{Sum, Avg, Min, Max, Count, FirstValue, LastValue}
	for _, f := range frames {
		for _, kind := range kinds {
			for trial := 0; trial < 6; trial++ {
				rows := randRows(rng, 1+rng.Intn(60))
				spec := baseSpec(kind)
				fr := f
				spec.Frame = &fr
				if kind == Count {
					spec.Arg = 2
				}
				checkAgainstReference(t, rows, spec, 3)
			}
		}
	}
}

func TestDescOrderingAndRangeFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows := randRows(rng, 1+rng.Intn(60))
		spec := baseSpec(Sum)
		spec.OK = attrs.Seq{{Attr: 1, Desc: true}}
		fr := Frame{Mode: Range, Start: Bound{Type: Preceding, Offset: 2}, End: Bound{Type: CurrentRow}}
		spec.Frame = &fr
		checkAgainstReference(t, rows, spec, 3)
	}
}

func TestEmptyPartitionKeyWholeTable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := randRows(rng, 50)
	spec := Spec{Name: "r", Kind: Rank, Arg: -1, OK: attrs.AscSeq(1)}
	checkAgainstReference(t, rows, spec, 3)
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
	spec := baseSpec(Sum)
	fr := WholePartitionFrame()
	spec.Frame = &fr
	vals, err := evaluateSlice(rows, spec)
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
	spec := baseSpec(Sum)
	if _, err := evaluateSlice(rows, spec); err == nil {
		t.Errorf("sum over strings should fail")
	}
}

func TestMinMaxOverStrings(t *testing.T) {
	rows := []storage.Tuple{
		{storage.Int(0), storage.Int(1), storage.StringVal("pear"), storage.Int(0)},
		{storage.Int(0), storage.Int(2), storage.StringVal("apple"), storage.Int(1)},
	}
	spec := baseSpec(Min)
	fr := WholePartitionFrame()
	spec.Frame = &fr
	vals, err := evaluateSlice(rows, spec)
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
// any other too-large offset; it must not wrap the row index. Reference
// shares frameBounds with the evaluator, so the expectations are written
// out by hand: one partition of 50 rows, value = position.
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
