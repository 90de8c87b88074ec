package gen

import (
	"strconv"
	"strings"

	"repro/internal/attrs"
	"repro/internal/datagen"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/window"
)

// spec builds a window function call: PARTITION BY pk as written, ORDER BY
// ok, an argument column or -1.
func spec(name string, kind window.Kind, arg attrs.ID, pk []attrs.ID, ok attrs.Seq, frame *window.Frame) window.Spec {
	return window.Spec{Name: name, Kind: kind, Arg: arg, PK: attrs.MakeSet(pk...), PKOrder: attrs.AscSeq(pk...), OK: ok, Frame: frame}
}

// Regressions are cases that have caught a mistake, as literal tables and
// statements; the generated tests run them ahead of the seeds. Each table
// lists rows of g, h, x and s ("-" for NULL); u is the row's position.
func Regressions() []Case {
	stmt := func(s Statement) *Statement {
		s.Table, s.Schema = "t", Schema
		return &s
	}
	return []Case{
		// Top-k breaking ties by descending position; DISTINCT stopping at the
		// LIMIT ahead of a sort.
		{"regression top-k ties", parseTable(`
-,5,-,b 2,1,1.5,a 1,2,-2.5,b 3,-,1.5,ab 1,2,-0,ab 2,3,-0,ab 1,-,-0,ab 3,5,-2.5,b -,2,-2.5,b 3,0,-0,ab 1,1,-,ab 2,4,1.5,ab 1,2,-0,ab 2,1,-,- 0,1,-2.5,a 1,3,1.5,b 0,3,-0,b 0,-,-,ab 0,2,-2.5, 1,1,-0,b
-,0,1.5,ab 2,0,-2.5, -,5,1.5,a 2,0,-2.5,b 0,4,-2.5,- 3,1,-, 0,-,-2.5, 1,-,-2.5,a -,4,1.5, 1,4,0,ab 1,-,-, 0,1,-0,ab 0,0,0,a 2,1,-, 2,3,0,- -,1,-0,ab 1,3,-0,ab 3,-,0, 3,2,1.5,a 3,0,-2.5,
3,2,-2.5, -,1,-0,b 1,0,-2.5,a 1,2,0,a 0,3,0,b 1,2,0,ab -,0,-0,- 0,-,-2.5,b 1,4,1.5,ab 0,1,-0,b 2,0,-2.5, 0,3,-,b 1,3,-0,ab 3,4,0,ab 3,5,0,a 2,0,-0,b 3,4,-0,a 2,1,1.5,a 3,1,-0, 1,4,1.5,ab
-,5,-,a 0,5,-0,b 0,2,-2.5,b -,2,-,b 1,-,0, 1,4,1.5,a 2,2,-2.5,ab 0,0,-0,ab 0,2,1.5,a 2,5,-0, 1,2,-, 3,4,0,b 0,1,0, -,2,-,- 0,4,1.5, 3,1,-0,a 1,2,1.5,- 3,1,-0,- 1,5,-0, 3,1,0,b
-,0,1.5,b 0,2,-0,b 1,-,-0,b -,1,0,b 0,4,0,b 1,5,-0,a 3,0,-2.5,ab 3,3,-2.5, -,5,-2.5, 0,4,1.5,ab 3,1,-, 1,5,-0,ab 0,2,0, 3,3,-,b 0,5,-0,b -,1,-,- -,4,-2.5,b 3,4,1.5,ab 1,3,1.5, -,0,-2.5,ab
1,3,-2.5, 0,0,-0,- 0,4,0,a 0,-,0,b 1,-,0,b -,1,-2.5,ab 0,5,0, 1,5,1.5,a 3,2,1.5,b 0,1,-,ab 0,4,-2.5,a 3,2,-2.5,ab 2,1,-2.5,- 1,0,-,a 0,-,1.5, -,3,1.5, 3,0,1.5,b 1,-,-0,a 3,0,-,ab 3,3,-2.5,b
2,3,0,`), stmt(Statement{Distinct: true, Cols: []attrs.ID{G, S}, Windows: []window.Spec{
			spec("w1", window.Rank, -1, []attrs.ID{G}, attrs.AscSeq(U), nil),
			spec("w2", window.DenseRank, -1, []attrs.ID{S}, attrs.Seq{{Attr: H, Desc: true, NullsFirst: true}}, nil),
		}, OrderBy: attrs.AscSeq(1), Limit: 40})},
		// +0.0 and −0.0 kept as two DISTINCT rows.
		{"regression DISTINCT zeros", parseTable(`
1,1,1.5,a 2,0,-0,- 1,5,1.5,ab 3,5,-0,a 1,4,-0,a 1,1,0,a 3,0,1.5,ab 1,2,-,b 3,5,-0,ab 1,3,0,b 1,5,-0, 1,3,0,- 2,5,-2.5,b 1,0,0,ab 3,2,0,b -,1,-,b 1,0,0,ab 0,4,-0, 1,4,1.5,- 3,3,-2.5,
0,2,-0, 0,-,-,b 2,0,-0,ab -,3,-2.5, 0,2,0,ab 3,2,1.5, 3,4,-0,ab 1,2,0,b 0,0,1.5,a 1,4,1.5,ab 0,-,-2.5, 2,3,-0,a 3,0,-,ab 0,5,1.5,a 0,4,-,a 2,3,-0, 2,2,0,b 2,0,1.5, 1,3,-2.5,a 2,5,0,
1,3,0, 2,2,-0, 3,1,-2.5, 0,4,-0,ab 1,-,-, 3,-,-2.5,b 3,5,-0,b 3,1,0,ab 3,1,1.5,b 3,4,1.5,a 3,5,0,- 2,0,-,ab 0,0,0,ab 1,2,1.5, 1,2,-2.5,b 1,1,-2.5, -,5,-2.5, 1,5,0, 2,-,-, 2,-,0,ab
2,2,-0,b 3,5,0,- 2,3,1.5,ab -,0,1.5, 1,4,-2.5,b 0,2,-0, 0,0,0,a 2,5,1.5,a 3,-,-,- 1,0,-2.5, 1,1,-,ab -,2,-2.5,b 0,2,0,b 0,0,-2.5, 2,4,-,b 2,4,-2.5,- -,2,-,- 1,5,-0,ab 0,2,1.5, 2,3,-,b
-,2,-2.5, 3,0,-0, 3,5,-0,a 0,-,0,- 0,-,1.5,a 2,-,-,a 0,-,-2.5,ab 1,4,1.5,b 2,4,-2.5, 2,2,-, 1,0,-0,a 0,4,0,b`),
			stmt(Statement{Distinct: true, Cols: []attrs.ID{X, S}, Where: &Preds[2],
				OrderBy: attrs.Seq{{Attr: 1}, {Attr: 0, Desc: true}}, Limit: 30})},
		// A partial sort leaving the run that crosses the LIMIT unsorted.
		{"regression partial sort", parseTable(`
1,-,1.5,a 2,4,-0,b 1,0,-2.5, 0,5,0,b -,0,-, 1,4,-2.5,a 2,-,0,- 0,0,-2.5,a 0,3,-2.5,b 2,1,-2.5,ab -,3,0,b 3,5,-0,a 0,-,-0,a 2,2,-2.5, -,1,-2.5, 3,4,1.5,a 1,5,-0,a 0,4,-0,a 2,0,1.5,a 0,2,-0,a
-,1,1.5, 3,1,-2.5,ab 2,2,-2.5,b 3,2,1.5,b 3,5,0,ab 2,5,-0,a 0,-,0,ab 2,-,-0, 2,3,-2.5,ab 3,5,1.5, 0,3,-2.5,ab 0,4,-2.5,ab 0,5,0,a 2,1,0,b 0,2,0,ab 0,4,1.5,a 3,0,-2.5,b 1,0,0,ab 1,2,0,ab -,5,1.5,a
2,3,-,a 3,5,1.5,b 2,2,-0,- 3,5,-2.5,- 3,2,-0,ab 1,3,-0,- 1,4,-,ab 1,4,-,ab 2,0,0,a 3,3,-0,b 3,-,-, 1,1,-0,- 0,-,0,b 2,-,0, 0,5,0,ab -,4,-0, 0,-,0,b 2,0,1.5,ab 0,4,-2.5,ab 2,0,0,b
-,3,-2.5,- 3,5,0,a 3,3,0,b 1,1,-2.5,b 1,4,-, 1,0,0,ab -,1,-0, 2,2,-0,ab 3,2,1.5,ab 2,3,1.5,a 1,2,0, 3,2,-2.5,- 0,2,-0, 0,2,-2.5,ab 3,3,1.5,a -,1,-, 0,3,-2.5, -,3,1.5,b 2,3,-0,b`), stmt(Statement{Distinct: true, Cols: []attrs.ID{G, X, S, U}, Windows: []window.Spec{
			spec("w1", window.Count, -1, []attrs.ID{G}, nil, nil),
			spec("w2", window.Max, H, []attrs.ID{G}, nil, nil),
		}, OrderBy: attrs.AscSeq(0, 2), Limit: 1})},
		// A maintained window partition split in two by −0.0 and +0.0.
		{"regression maintained zeros", parseTable("1,1,0,a 1,1,-0,a 1,1,0,a 1,1,-0,a"), stmt(Statement{Cols: []attrs.ID{X, U},
			Windows: []window.Spec{spec("w1", window.Count, -1, []attrs.ID{X}, nil, nil)}, Limit: -1})},
		// A plan refused: ORDER BY x DESC NULLS FIRST covers PARTITION BY x,
		// but the plan check wanted x ascending, NULLs last.
		{"regression descending cover", parseTable("1,1,0,a 2,-,1.5,b 3,2,-,ab"), stmt(Statement{Cols: []attrs.ID{X, U}, Windows: []window.Spec{
			spec("w1", window.Rank, -1, nil, attrs.Seq{{Attr: X, Desc: true, NullsFirst: true}}, nil),
			spec("w2", window.Count, -1, []attrs.ID{X}, nil, nil),
		}, Limit: -1})},
	}
}

// parseTable reads a literal table of Schema (see Regressions).
func parseTable(text string) *storage.Table {
	t := storage.NewTable(Schema)
	for i, row := range strings.Fields(text) {
		r := storage.Tuple{storage.Null, storage.Null, storage.Null, storage.Null, storage.Int(int64(i))}
		for c, f := range strings.Split(row, ",") {
			switch {
			case f == "-":
			case attrs.ID(c) == X:
				x, _ := strconv.ParseFloat(f, 64)
				r[c] = storage.Float(x)
			case attrs.ID(c) == S:
				r[c] = storage.StringVal(f)
			default:
				n, _ := strconv.ParseInt(f, 10, 64)
				r[c] = storage.Int(n)
			}
		}
		t.MustAppend(r)
	}
	return t
}

// Corpus is the paper's Q1–Q9 and the benchmark's F1–F6 as fixed statements
// over web_sales tables of the given size: Q4 over the variant sorted on
// ws_quantity, Q5 over the one grouped on it. Every Q also projects the
// unique ws_order_number.
func Corpus(rows int) []Case {
	cfg := datagen.WebSalesConfig{Rows: rows, Seed: 7, PadBytes: 16}
	tables := map[string]*storage.Table{
		"web_sales": datagen.WebSales(cfg), "web_sales_s": datagen.WebSalesSorted(cfg), "web_sales_g": datagen.WebSalesGrouped(cfg),
	}
	order := attrs.ID(datagen.ColOrderNumber)
	var cases []Case
	add := func(name, table string, s Statement) {
		s.Table, s.Schema = table, tables[table].Schema
		if s.Limit == 0 { // no corpus statement takes LIMIT 0: the zero value is none
			s.Limit = -1
		}
		cases = append(cases, Case{name, tables[table], &s})
	}
	for _, q := range paper.MicroQueries() {
		q.Spec.Name = "r"
		add(q.Name, q.Table, Statement{Cols: []attrs.ID{order}, Windows: []window.Spec{q.Spec}})
	}
	for i, specs := range [][]window.Spec{paper.Q6(), paper.Q7(), paper.Q8(), paper.Q9()} {
		add("Q"+strconv.Itoa(i+6), "web_sales", Statement{Cols: []attrs.ID{order}, Windows: specs})
	}

	item, bill, wh := attrs.ID(datagen.ColItem), attrs.ID(datagen.ColBill), attrs.ID(datagen.ColWarehouse)
	qty, list, price := attrs.ID(datagen.ColQuantity), attrs.ID(datagen.ColListPrice), attrs.ID(datagen.ColSalesPrice)
	bound := func(t window.BoundType, k int64) window.Bound { return window.Bound{Type: t, Offset: k} }
	frame := func(mode window.FrameMode, start, end window.Bound) *window.Frame {
		return &window.Frame{Mode: mode, Start: start, End: end}
	}
	prec, cur, foll := window.Preceding, bound(window.CurrentRow, 0), window.Following
	byItemDate := attrs.AscSeq(attrs.ID(datagen.ColSoldDate), order)
	byPrice := attrs.AscSeq(list, order)
	quantity := func(sql string, keep func(int64) bool) *Pred {
		return &Pred{sql, func(r storage.Tuple) bool { return keep(r[qty].Int64()) }}
	}
	add("F1", "web_sales", Statement{Cols: []attrs.ID{item, order}, Windows: []window.Spec{
		spec("s10", window.Sum, qty, []attrs.ID{item}, byItemDate, frame(window.Rows, bound(prec, 10), cur)),
		spec("a50", window.Avg, qty, []attrs.ID{item}, byItemDate, frame(window.Rows, bound(prec, 50), bound(foll, 50))),
	}})
	add("F2", "web_sales", Statement{Cols: []attrs.ID{item, order}, Windows: []window.Spec{
		spec("lo", window.Min, price, []attrs.ID{item}, byItemDate, frame(window.Rows, bound(prec, 50), cur)),
		spec("hi", window.Max, price, []attrs.ID{item}, byItemDate, frame(window.Rows, bound(prec, 10), bound(foll, 50))),
	}})
	add("F3", "web_sales", Statement{Cols: []attrs.ID{item, order}, Windows: []window.Spec{
		spec("s", window.Sum, qty, []attrs.ID{item}, byItemDate[:1], frame(window.Range, bound(prec, 10), cur)),
	}})
	lag := spec("prev", window.Lag, price, []attrs.ID{bill}, byItemDate, nil)
	lead := spec("nxt", window.Lead, price, []attrs.ID{bill}, byItemDate, nil)
	lag.N, lead.N = 1, 1
	add("F4", "web_sales", Statement{Cols: []attrs.ID{bill, order}, Windows: []window.Spec{lag, lead},
		Where: quantity("ws_quantity > 50", func(q int64) bool { return q > 50 }), OrderBy: attrs.AscSeq(1), Limit: 100})
	ntile := spec("q", window.Ntile, -1, []attrs.ID{wh}, byPrice, nil)
	ntile.N = 4
	add("F5", "web_sales", Statement{Cols: []attrs.ID{wh, order}, Windows: []window.Spec{
		ntile,
		spec("lo", window.FirstValue, list, []attrs.ID{wh}, byPrice, nil),
		spec("hi", window.LastValue, list, []attrs.ID{wh}, byPrice, frame(window.Rows, cur, bound(window.UnboundedFollowing, 0))),
	}, Where: quantity("ws_quantity <= 50", func(q int64) bool { return q <= 50 }), OrderBy: attrs.AscSeq(0, 1), Limit: 100})
	add("F6", "web_sales", Statement{Distinct: true, Cols: []attrs.ID{item}, Windows: []window.Spec{
		spec("mx", window.Max, qty, []attrs.ID{item}, nil, nil),
		spec("n", window.Count, -1, []attrs.ID{item}, nil, nil),
	}})
	return cases
}
