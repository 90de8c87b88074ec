package sql

import (
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
)

// mapDistinctPositions is DISTINCT as it was decided before the key table:
// a Go map keyed by each row's encoded projection, the zeros folded. It is
// the oracle FuzzDistinctPositions holds the table to.
func mapDistinctPositions(src *exec.Chain, pick []int, stop int) []int {
	seen := make(map[string]struct{})
	var order []int
	var key []byte
	for i := 0; i < src.Len() && len(order) < stop; i++ {
		key = key[:0]
		for _, col := range pick {
			v := src.At(i, col)
			if v.Kind() == storage.KindFloat && v.Float64() == 0 {
				v = storage.Float(0)
			}
			key = storage.AppendTuple(key, storage.Tuple{v})
		}
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
			order = append(order, i)
		}
	}
	return order
}

// fuzzValues are what a fuzzed cell can hold: NULL, both float zeros, NaN,
// infinities, integers — one of them equal to a float — and strings,
// among them an empty one and one that spells an integer's encoding.
var fuzzValues = []storage.Value{
	storage.Null,
	storage.Float(0), storage.Float(math.Copysign(0, -1)), storage.Float(math.NaN()),
	storage.Float(math.Inf(1)), storage.Float(math.Inf(-1)), storage.Float(1),
	storage.Int(0), storage.Int(1), storage.Int(-1), storage.Int(1 << 40),
	storage.StringVal(""), storage.StringVal("a"), storage.StringVal("ab"), storage.StringVal("\x02\x02"),
}

// FuzzDistinctPositions holds the DISTINCT key table to the string-keyed
// map it replaced: the same positions, in the same order, for any rows,
// any projection (columns repeated or left out) and any stop — below, at
// and above the distinct count — and again when the table comes back from
// its free list with a statement's keys behind it.
func FuzzDistinctPositions(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 1, 2, 3, 2, 1, 1, 2, 2, 3, 3}, uint8(255), uint8(3))
	f.Add([]byte{1, 1, 2, 1, 2, 3, 3, 0, 0, 7, 7}, uint8(2), uint8(1))
	f.Add([]byte{3, 11, 12, 13, 11, 12, 13, 14, 14, 14, 8, 7, 6}, uint8(1), uint8(7))
	f.Add([]byte{1, 3, 3, 3, 4, 5, 4, 5}, uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, stop, picks uint8) {
		if len(data) == 0 {
			return
		}
		width := int(data[0])%3 + 1
		cells := data[1:]
		var rows []storage.Tuple
		for len(cells) >= width {
			row := make(storage.Tuple, width)
			for c := range row {
				row[c] = fuzzValues[int(cells[c])%len(fuzzValues)]
			}
			rows = append(rows, row)
			cells = cells[width:]
		}
		// picks chooses the projection: up to four columns, repeats allowed.
		pick := []int{int(picks) % width}
		for p := picks / 4; p > 0 && len(pick) < 4; p /= 4 {
			pick = append(pick, int(p)%width)
		}
		src := &exec.Chain{Rows: rows, Width: width}
		want := mapDistinctPositions(src, pick, int(stop))
		for range 2 {
			if got := distinctPositions(src, pick, int(stop), nil); !slices.Equal(got, want) {
				t.Fatalf("%d rows, pick %v, stop %d: key table keeps %v, the map %v", len(rows), pick, stop, got, want)
			}
		}
	})
}

// TestDistinctTableGrows: a DISTINCT with many more distinct rows than the
// table starts with doubles it as it goes, and still finds the duplicates
// that come after each doubling: 1 700 distinct rows, each three times.
func TestDistinctTableGrows(t *testing.T) {
	rows := make([]storage.Tuple, 5100)
	for i := range rows {
		rows[i] = storage.Tuple{storage.Int(int64(i % 1700)), storage.StringVal(string(rune('a' + i%2)))}
	}
	src := &exec.Chain{Rows: rows, Width: 2}
	for _, stop := range []int{0, 1, 100, 1700, 5100} {
		want := mapDistinctPositions(src, []int{0, 1}, stop)
		if got := distinctPositions(src, []int{0, 1}, stop, nil); !slices.Equal(got, want) {
			t.Fatalf("stop %d: key table keeps %d rows, the map %d", stop, len(got), len(want))
		}
	}
}
