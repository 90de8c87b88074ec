// Package gen is the one generator of window statements and the tables they
// run over, and the one oracle they are held to: the test-support package
// every execution path's generated test imports (only tests import it). A
// Statement is a struct that renders to SQL, so the oracle — the WHERE
// closure, window.Reference per window, the projection and the finalize
// oracle — never goes through the sql package's parser or binder.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/attrs"
	"repro/internal/storage"
	"repro/internal/window"
)

// The columns of every generated table. Every value is dyadic and far below
// 2^40, so a float sum does not depend on the order it is taken in.
const (
	G attrs.ID = iota // INT in 0..3
	H                 // INT in 0..5
	X                 // FLOAT, both zeros among its values
	S                 // STRING, some of them 65 bytes long
	U                 // INT, the row's arrival position: unique, never NULL
)

// Schema is every generated table's schema.
var Schema = storage.NewSchema(
	storage.Column{Name: "g", Type: storage.TypeInt}, storage.Column{Name: "h", Type: storage.TypeInt},
	storage.Column{Name: "x", Type: storage.TypeFloat}, storage.Column{Name: "s", Type: storage.TypeString},
	storage.Column{Name: "u", Type: storage.TypeInt},
)

var (
	floats = []float64{0, math.Copysign(0, -1), 1.5, -2.5, 0.25}
	long   = strings.Repeat("l", 64)
	strs   = []string{"", "a", "b", "ab", long + "a", long + "b"}
)

// The table shapes; NewTable draws random ones three times as often as each
// of the others.
const (
	allTies = iota
	nullHeavy
	oneGroup
	hotKey // g = 2 in 70 % of the rows
	oneRow
	empty
	random
)

// NewTable draws a table of a random shape.
func NewTable(rng *rand.Rand) *storage.Table { return table(rng, min(rng.Intn(random+3), random)) }

// Tables returns one table of every shape.
func Tables(rng *rand.Rand) []*storage.Table {
	out := make([]*storage.Table, random+1)
	for shape := range out {
		out[shape] = table(rng, shape)
	}
	return out
}

func table(rng *rand.Rand, shape int) *storage.Table {
	n, nullFrac := 20+rng.Intn(130), 0.1
	switch shape {
	case nullHeavy:
		nullFrac = 0.7
	case oneRow:
		n = 1
	case empty:
		n = 0
	}
	t := storage.NewTable(Schema)
	for i := range n {
		row := storage.Tuple{
			storage.Int(rng.Int63n(4)), storage.Int(rng.Int63n(6)),
			storage.Float(floats[rng.Intn(len(floats))]), storage.StringVal(strs[rng.Intn(len(strs))]),
			storage.Int(int64(i)),
		}
		for c := G; c < U; c++ {
			if rng.Float64() < nullFrac {
				row[c] = storage.Null
			}
		}
		switch {
		case shape == allTies:
			row[G], row[H], row[X], row[S] = storage.Int(1), storage.Int(1), storage.Float(floats[i%2]), storage.StringVal(long)
		case shape == oneGroup:
			row[G] = storage.Int(7)
		case shape == hotKey && i%10 < 7:
			row[G] = storage.Int(2)
		}
		t.MustAppend(row)
	}
	return t
}

// Pred is a WHERE clause and the closure that decides it.
type Pred struct {
	SQL  string
	Keep func(storage.Tuple) bool
}

// Preds are the WHERE clauses generated statements draw from.
var Preds = []Pred{
	{"h >= 2", func(r storage.Tuple) bool { return !r[H].IsNull() && r[H].Int64() >= 2 }},
	{"NOT (h = 3)", func(r storage.Tuple) bool { return !r[H].IsNull() && r[H].Int64() != 3 }},
	{"s IS NULL OR u < 40", func(r storage.Tuple) bool { return r[S].IsNull() || r[U].Int64() < 40 }},
	{"x > 0", func(r storage.Tuple) bool { return !r[X].IsNull() && r[X].Float64() > 0 }},
}

// Statement is one query block: SELECT [DISTINCT] Cols, Windows FROM Table
// [WHERE] [ORDER BY] [LIMIT].
type Statement struct {
	Table    string
	Schema   *storage.Schema
	Distinct bool
	Cols     []attrs.ID    // projected base columns, ahead of the windows
	Windows  []window.Spec // projected under their Name
	Where    *Pred         // nil: none
	OrderBy  attrs.Seq     // over the output columns
	Limit    int64         // -1: none
}

// NewStatement draws a statement over table, a table of Schema with n rows:
// 0–6 windows, each of any window.Kind, a WHERE from Preds, DISTINCT,
// ORDER BY and LIMIT.
func NewStatement(rng *rand.Rand, table string, n int) *Statement {
	s := &Statement{Table: table, Schema: Schema, Distinct: rng.Intn(3) == 0}
	for i := range rng.Intn(7) {
		s.Windows = append(s.Windows, newWindow(rng, fmt.Sprintf("w%d", i+1), n))
	}
	var aligned attrs.Seq
	if len(s.Windows) > 0 && rng.Intn(3) == 0 {
		// An ORDER BY a chain can end ordered on, wholly or by a prefix: what
		// makes avoided and partial final sorts likely.
		w := s.Windows[rng.Intn(len(s.Windows))]
		key := w.PK.AscSeq().Concat(w.OK)
		aligned = key[:rng.Intn(len(key)+1)]
	}
	cols := aligned.Attrs()
	for c := G; c <= U; c++ {
		if rng.Intn(2) == 0 {
			cols = cols.Add(c)
		}
	}
	if cols.Empty() && len(s.Windows) == 0 {
		cols = cols.Add(H)
	}
	s.Cols = cols.IDs()
	if rng.Intn(6) > 0 {
		for _, e := range aligned {
			e.Attr = attrs.ID(slices.Index(s.Cols, e.Attr))
			s.OrderBy = append(s.OrderBy, e)
		}
		if len(aligned) == 0 {
			for range 1 + rng.Intn(3) {
				s.OrderBy = append(s.OrderBy, elem(rng, attrs.ID(rng.Intn(len(s.Cols)+len(s.Windows)))))
			}
		}
	}
	if p := rng.Intn(len(Preds) + 2); p < len(Preds) {
		s.Where = &Preds[p]
	}
	s.Limit = []int64{-1, -1, 0, 1, int64(n / 3), int64(n), int64(n + 5)}[rng.Intn(7)]
	return s
}

func elem(rng *rand.Rand, a attrs.ID) attrs.Elem {
	return attrs.Elem{Attr: a, Desc: rng.Intn(2) == 0, NullsFirst: rng.Intn(2) == 0}
}

// newWindow draws one window over n rows. Offsets are 0, 1, 2, near n or
// near math.MaxInt64. A function whose value depends on a row's place among
// its peers gets u as its last ORDER BY key: SQL leaves its value on ties
// undefined, so a plan's tie order is not the oracle's.
func newWindow(rng *rand.Rand, name string, n int) window.Spec {
	w := window.Spec{Name: name, Kind: window.Kind(rng.Intn(int(window.Max) + 1)), Arg: -1}
	for _, c := range rng.Perm(int(U))[:rng.Intn(3)] {
		w.PK, w.PKOrder = w.PK.Add(attrs.ID(c)), append(w.PKOrder, attrs.Asc(attrs.ID(c)))
	}
	for _, c := range rng.Perm(int(U) + 1)[:rng.Intn(3)] {
		if !w.PK.Contains(attrs.ID(c)) {
			w.OK = append(w.OK, elem(rng, attrs.ID(c)))
		}
	}
	offset := func() int64 {
		return []int64{0, 1, 2, int64(max(n-1, 0)), int64(n), int64(n + 1), math.MaxInt64 - 1, math.MaxInt64}[rng.Intn(8)]
	}
	numeric := []attrs.ID{G, H, X, U}
	switch w.Kind {
	case window.Sum, window.Avg:
		w.Arg = numeric[rng.Intn(len(numeric))]
	case window.Count:
		w.Arg = attrs.ID(rng.Intn(int(U)+2)) - 1 // -1: count(*)
	case window.Lead, window.Lag, window.FirstValue, window.LastValue, window.NthValue, window.Min, window.Max:
		w.Arg = attrs.ID(rng.Intn(int(U) + 1))
	}
	switch w.Kind {
	case window.Ntile, window.NthValue:
		// Half the time N is 3–7: ntile's buckets of two sizes, with
		// several of them a row larger, and an nth row inside the partition.
		if w.N = max(offset(), 1); rng.Intn(2) == 0 {
			w.N = 3 + rng.Int63n(5)
		}
	case window.Lead, window.Lag:
		if w.N = offset(); rng.Intn(2) == 0 {
			w.Default = storage.Int(-7)
		}
	}
	if w.Kind >= window.FirstValue && rng.Intn(3) > 0 {
		// Bound types in SQL's order, the end's never before the start's.
		start := window.BoundType(rng.Intn(4))
		end := max(start, 1) + window.BoundType(rng.Intn(int(5-max(start, 1))))
		f := window.Frame{Mode: window.FrameMode(rng.Intn(2)), Start: window.Bound{Type: start}, End: window.Bound{Type: end}}
		if offsetBound(start) {
			f.Start.Offset = offset()
		}
		if offsetBound(end) {
			f.End.Offset = offset()
		}
		if f.Mode == window.Range && (offsetBound(start) || offsetBound(end)) {
			// An offset needs one numeric ordering key; only an aggregate's
			// value is the same for every order of its frame.
			if w.Kind >= window.Count {
				w.OK = attrs.Seq{elem(rng, numeric[rng.Intn(len(numeric))])}
			} else {
				f.Mode = window.Rows
			}
		}
		w.Frame = &f
	}
	positional := w.Kind == window.RowNumber || (w.Kind >= window.Ntile && w.Kind <= window.NthValue) ||
		(w.Frame != nil && w.Frame.Mode == window.Rows)
	if positional && !w.OK.Attrs().Contains(U) {
		w.OK = append(w.OK, elem(rng, U))
	}
	return w
}

// boundSQL names the frame bound types.
var boundSQL = [...]string{"UNBOUNDED PRECEDING", "PRECEDING", "CURRENT ROW", "FOLLOWING", "UNBOUNDED FOLLOWING"}

func offsetBound(t window.BoundType) bool { return t == window.Preceding || t == window.Following }

// SQL renders the statement, every ORDER BY element with its direction and
// NULLS placement spelled out.
func (s *Statement) SQL() string {
	var items, out []string
	for _, c := range s.Cols {
		items, out = append(items, s.name(c)), append(out, s.name(c))
	}
	for _, w := range s.Windows {
		items, out = append(items, s.call(w)+" AS "+w.Name), append(out, w.Name)
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	fmt.Fprintf(&b, "%s FROM %s", strings.Join(items, ", "), s.Table)
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY " + orderSQL(s.OrderBy, func(a attrs.ID) string { return out[a] }))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

func (s *Statement) name(c attrs.ID) string { return s.Schema.Columns[c].Name }

func orderSQL(seq attrs.Seq, name func(attrs.ID) string) string {
	items := make([]string, len(seq))
	for i, e := range seq {
		items[i] = name(e.Attr) + map[bool]string{false: " ASC", true: " DESC"}[e.Desc] +
			map[bool]string{false: " NULLS LAST", true: " NULLS FIRST"}[e.NullsFirst]
	}
	return strings.Join(items, ", ")
}

// call renders one window function call.
func (s *Statement) call(w window.Spec) string {
	var args, over []string
	if w.Arg >= 0 {
		args = append(args, s.name(w.Arg))
	}
	switch w.Kind {
	case window.Count:
		if w.Arg < 0 {
			args = append(args, "*")
		}
	case window.Ntile, window.NthValue, window.Lead, window.Lag:
		args = append(args, strconv.FormatInt(w.N, 10))
		if !w.Default.IsNull() {
			args = append(args, w.Default.String())
		}
	}
	pk := w.PKOrder
	if len(pk) == 0 {
		pk = w.PK.AscSeq()
	}
	if len(pk) > 0 {
		names := make([]string, len(pk))
		for i, e := range pk {
			names[i] = s.name(e.Attr)
		}
		over = append(over, "PARTITION BY "+strings.Join(names, ", "))
	}
	if len(w.OK) > 0 {
		over = append(over, "ORDER BY "+orderSQL(w.OK, s.name))
	}
	if f := w.Frame; f != nil {
		bound := func(b window.Bound) string {
			if offsetBound(b.Type) {
				return fmt.Sprintf("%d %s", b.Offset, boundSQL[b.Type])
			}
			return boundSQL[b.Type]
		}
		over = append(over, fmt.Sprintf("%s BETWEEN %s AND %s", [...]string{"ROWS", "RANGE"}[f.Mode], bound(f.Start), bound(f.End)))
	}
	return fmt.Sprintf("%s(%s) OVER (%s)", w.Kind, strings.Join(args, ", "), strings.Join(over, " "))
}
