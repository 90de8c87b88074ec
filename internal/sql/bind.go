package sql

import (
	"fmt"

	"repro/internal/attrs"
	"repro/internal/storage"
	"repro/internal/window"
)

// BindWindowCall resolves a parsed window call against a schema, producing
// an executable window.Spec.
func BindWindowCall(call *WindowCall, schema *storage.Schema, defaultName string) (window.Spec, error) {
	spec := window.Spec{Name: defaultName, Arg: -1}

	col := func(name string) (attrs.ID, error) {
		i := schema.ColIndex(name)
		if i < 0 {
			return 0, fmt.Errorf("sql: unknown column %q", name)
		}
		return attrs.ID(i), nil
	}
	argCol := func(i int) (attrs.ID, error) {
		if i >= len(call.Args) || call.Args[i].Column == "" {
			return 0, fmt.Errorf("sql: %s argument %d must be a column", call.Func, i+1)
		}
		return col(call.Args[i].Column)
	}
	argInt := func(i int) (int64, error) {
		if i >= len(call.Args) || call.Args[i].Lit == nil || call.Args[i].Lit.Int == nil {
			return 0, fmt.Errorf("sql: %s argument %d must be an integer", call.Func, i+1)
		}
		return *call.Args[i].Lit.Int, nil
	}
	wantArgs := func(min, max int) error {
		if len(call.Args) < min || len(call.Args) > max {
			return fmt.Errorf("sql: %s takes %d..%d arguments, got %d", call.Func, min, max, len(call.Args))
		}
		return nil
	}

	switch call.Func {
	case "row_number", "rank", "dense_rank", "percent_rank", "cume_dist":
		if err := wantArgs(0, 0); err != nil {
			return spec, err
		}
		spec.Kind = map[string]window.Kind{
			"row_number": window.RowNumber, "rank": window.Rank,
			"dense_rank": window.DenseRank, "percent_rank": window.PercentRank,
			"cume_dist": window.CumeDist,
		}[call.Func]
	case "ntile":
		if err := wantArgs(1, 1); err != nil {
			return spec, err
		}
		n, err := argInt(0)
		if err != nil {
			return spec, err
		}
		spec.Kind, spec.N = window.Ntile, n
	case "lead", "lag":
		if err := wantArgs(1, 3); err != nil {
			return spec, err
		}
		a, err := argCol(0)
		if err != nil {
			return spec, err
		}
		spec.Arg = a
		spec.N = 1
		if len(call.Args) >= 2 {
			n, err := argInt(1)
			if err != nil {
				return spec, err
			}
			spec.N = n
		}
		if len(call.Args) == 3 {
			v, err := litValue(*call.Args[2].Lit)
			if err != nil {
				return spec, err
			}
			spec.Default = v
		}
		if call.Func == "lead" {
			spec.Kind = window.Lead
		} else {
			spec.Kind = window.Lag
		}
	case "first_value", "last_value":
		if err := wantArgs(1, 1); err != nil {
			return spec, err
		}
		a, err := argCol(0)
		if err != nil {
			return spec, err
		}
		spec.Arg = a
		if call.Func == "first_value" {
			spec.Kind = window.FirstValue
		} else {
			spec.Kind = window.LastValue
		}
	case "nth_value":
		if err := wantArgs(2, 2); err != nil {
			return spec, err
		}
		a, err := argCol(0)
		if err != nil {
			return spec, err
		}
		n, err := argInt(1)
		if err != nil {
			return spec, err
		}
		spec.Kind, spec.Arg, spec.N = window.NthValue, a, n
	case "count":
		spec.Kind = window.Count
		if call.Star {
			spec.Arg = -1
		} else {
			if err := wantArgs(1, 1); err != nil {
				return spec, err
			}
			a, err := argCol(0)
			if err != nil {
				return spec, err
			}
			spec.Arg = a
		}
	case "sum", "avg", "min", "max":
		if err := wantArgs(1, 1); err != nil {
			return spec, err
		}
		a, err := argCol(0)
		if err != nil {
			return spec, err
		}
		spec.Arg = a
		spec.Kind = map[string]window.Kind{
			"sum": window.Sum, "avg": window.Avg,
			"min": window.Min, "max": window.Max,
		}[call.Func]
	default:
		return spec, fmt.Errorf("sql: unknown window function %q", call.Func)
	}

	for _, name := range call.PartitionBy {
		id, err := col(name)
		if err != nil {
			return spec, err
		}
		if spec.PK.Contains(id) {
			return spec, fmt.Errorf("sql: duplicate PARTITION BY column %q", name)
		}
		spec.PK = spec.PK.Add(id)
		spec.PKOrder = append(spec.PKOrder, attrs.Asc(id))
	}
	for _, item := range call.OrderBy {
		id, err := col(item.Column)
		if err != nil {
			return spec, err
		}
		spec.OK = append(spec.OK, attrs.Elem{Attr: id, Desc: item.Desc, NullsFirst: item.NullsFirst})
	}
	if call.Frame != nil {
		f, err := bindFrame(call.Frame)
		if err != nil {
			return spec, err
		}
		spec.Frame = &f
	}
	return spec, nil
}

func bindFrame(fc *FrameClause) (window.Frame, error) {
	mode := window.Range
	if fc.Rows {
		mode = window.Rows
	}
	start, err := bindBound(fc.Start)
	if err != nil {
		return window.Frame{}, err
	}
	end, err := bindBound(fc.End)
	if err != nil {
		return window.Frame{}, err
	}
	return window.Frame{Mode: mode, Start: start, End: end}, nil
}

func bindBound(b FrameBound) (window.Bound, error) {
	switch b.Kind {
	case "UNBOUNDED PRECEDING":
		return window.Bound{Type: window.UnboundedPreceding}, nil
	case "UNBOUNDED FOLLOWING":
		return window.Bound{Type: window.UnboundedFollowing}, nil
	case "CURRENT ROW":
		return window.Bound{Type: window.CurrentRow}, nil
	case "PRECEDING":
		return window.Bound{Type: window.Preceding, Offset: b.Offset}, nil
	case "FOLLOWING":
		return window.Bound{Type: window.Following, Offset: b.Offset}, nil
	}
	return window.Bound{}, fmt.Errorf("sql: unknown frame bound %q", b.Kind)
}

func litValue(l Literal) (storage.Value, error) {
	switch {
	case l.IsNull:
		return storage.Null, nil
	case l.Int != nil:
		return storage.Int(*l.Int), nil
	case l.Float != nil:
		return storage.Float(*l.Float), nil
	case l.Str != nil:
		return storage.StringVal(*l.Str), nil
	case l.Bool != nil:
		if *l.Bool {
			return storage.Int(1), nil
		}
		return storage.Int(0), nil
	}
	return storage.Null, fmt.Errorf("sql: empty literal")
}
