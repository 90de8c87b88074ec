package window

import (
	"testing"

	"repro/internal/attrs"
	"repro/internal/storage"
)

// rangeFrameTable builds rows over (grp INT, k INT-with-NULLs, v INT):
// enough duplicate keys for peer groups, NULLs for the NULL-peer-group
// rule, and gaps (k jumps by 10) so small offsets produce empty frames.
func rangeFrameTable() []storage.Tuple {
	mk := func(grp int64, k storage.Value, v int64) storage.Tuple {
		return storage.Tuple{storage.Int(grp), k, storage.Int(v)}
	}
	n := storage.Null
	i := storage.Int
	return []storage.Tuple{
		mk(1, i(0), 1), mk(1, i(0), 2), mk(1, i(10), 3), mk(1, i(11), 4),
		mk(1, i(30), 5), mk(1, n, 6), mk(1, n, 7),
		mk(2, i(-5), 8), mk(2, i(5), 9), mk(2, n, 10), mk(2, i(5), 11),
		mk(3, i(42), 12), // single-row partition
		mk(4, n, 13),     // all-NULL partition
		mk(4, n, 14),
	}
}

// rangeSpec builds a framed sum() over the table with the given ordering
// direction, null placement and frame bounds.
func rangeSpec(desc, nullsFirst bool, start, end Bound) Spec {
	return Spec{
		Name: "s",
		Kind: Sum,
		Arg:  2,
		PK:   attrs.MakeSet(0),
		OK:   attrs.Seq{{Attr: 1, Desc: desc, NullsFirst: nullsFirst}},
		Frame: &Frame{
			Mode:  Range,
			Start: start,
			End:   end,
		},
	}
}

// assertMatchesReference evaluates the spec via the streaming evaluator
// (over properly arranged input) and via the O(n²) reference (over the
// raw rows) and requires identical derived values per original row.
func assertMatchesReference(t *testing.T, spec Spec, rows []storage.Tuple) {
	t.Helper()
	want, err := Reference(rows, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Arrange a matching order for the streaming path: PK, then OK with
	// its direction and null placement — what any reorder operator
	// producing a matched stream would emit — while remembering each
	// row's original index.
	type tagged struct {
		row storage.Tuple
		idx int
	}
	arranged := make([]tagged, len(rows))
	for i, r := range rows {
		arranged[i] = tagged{row: r, idx: i}
	}
	key := spec.PK.AscSeq().Concat(spec.OK)
	for i := 1; i < len(arranged); i++ {
		for j := i; j > 0 && storage.CompareSeq(arranged[j].row, arranged[j-1].row, key) < 0; j-- {
			arranged[j], arranged[j-1] = arranged[j-1], arranged[j]
		}
	}
	sorted := make([]storage.Tuple, len(arranged))
	for i, a := range arranged {
		sorted[i] = a.row
	}
	got, err := evaluateSlice(sorted, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arranged {
		if !storage.Equal(got[i], want[a.idx]) {
			t.Errorf("row %d (%v): streaming %v != reference %v", a.idx, a.row, got[i], want[a.idx])
		}
	}
}

// TestRangeOffsetDescending: RANGE k PRECEDING/FOLLOWING under a
// descending ordering key — "preceding" moves against the sort direction,
// i.e. towards larger values.
func TestRangeOffsetDescending(t *testing.T) {
	rows := rangeFrameTable()
	for _, nullsFirst := range []bool{false, true} {
		assertMatchesReference(t, rangeSpec(true, nullsFirst,
			Bound{Type: Preceding, Offset: 10}, Bound{Type: CurrentRow}), rows)
		assertMatchesReference(t, rangeSpec(true, nullsFirst,
			Bound{Type: CurrentRow}, Bound{Type: Following, Offset: 10}), rows)
		assertMatchesReference(t, rangeSpec(true, nullsFirst,
			Bound{Type: Preceding, Offset: 1}, Bound{Type: Following, Offset: 1}), rows)
	}
}

// TestRangeOffsetAscendingNulls: ascending frames with NULL keys — a NULL
// row's frame is exactly its NULL peer group, wherever the nulls sort.
func TestRangeOffsetAscendingNulls(t *testing.T) {
	rows := rangeFrameTable()
	for _, nullsFirst := range []bool{false, true} {
		assertMatchesReference(t, rangeSpec(false, nullsFirst,
			Bound{Type: Preceding, Offset: 10}, Bound{Type: CurrentRow}), rows)
		assertMatchesReference(t, rangeSpec(false, nullsFirst,
			Bound{Type: Preceding, Offset: 0}, Bound{Type: Following, Offset: 0}), rows)
	}
}

// TestRangeOffsetEmptyFrames: bounds that exclude every row (the frame
// window falls into a key gap) must yield NULL sums, identically in both
// evaluators.
func TestRangeOffsetEmptyFrames(t *testing.T) {
	rows := rangeFrameTable()
	// [k+5, k+6] lands between the 11→30 gap for most keys: frames are
	// frequently empty.
	spec := rangeSpec(false, false,
		Bound{Type: Following, Offset: 5}, Bound{Type: Following, Offset: 6})
	assertMatchesReference(t, spec, rows)
	// And the mirrored preceding form, descending.
	specDesc := rangeSpec(true, false,
		Bound{Type: Preceding, Offset: 6}, Bound{Type: Preceding, Offset: 5})
	assertMatchesReference(t, specDesc, rows)

	// Pin one concrete empty frame: group 1 ascending, row k=30 with
	// frame [35, 36] has no rows — sum must be NULL.
	got, err := Reference(rows, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r[0].Int64() == 1 && !r[1].IsNull() && r[1].Int64() == 30 {
			if !got[i].IsNull() {
				t.Errorf("k=30 frame [35,36]: sum = %v, want NULL", got[i])
			}
		}
	}
}

// TestRangeOffsetCountFirstLast exercises the other framed functions over
// offset frames with descending order and NULLs (count never goes NULL on
// empty frames; first_value/last_value do).
func TestRangeOffsetCountFirstLast(t *testing.T) {
	rows := rangeFrameTable()
	for _, kind := range []Kind{Count, FirstValue, LastValue, Min, Max, Avg} {
		spec := rangeSpec(true, false,
			Bound{Type: Preceding, Offset: 10}, Bound{Type: Following, Offset: 1})
		spec.Kind = kind
		assertMatchesReference(t, spec, rows)
	}
}

// TestRangeOffsetValidation: offset frames demand exactly one ordering
// key, and a string key is rejected at evaluation.
func TestRangeOffsetValidation(t *testing.T) {
	spec := rangeSpec(false, false, Bound{Type: Preceding, Offset: 1}, Bound{Type: CurrentRow})
	spec.OK = attrs.Seq{{Attr: 1}, {Attr: 2}}
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
	strSpec := rangeSpec(false, false, Bound{Type: Preceding, Offset: 1}, Bound{Type: CurrentRow})
	if _, err := evaluateSlice(strRows, strSpec); err == nil {
		t.Error("string ordering key must fail RANGE offset evaluation")
	}
}
