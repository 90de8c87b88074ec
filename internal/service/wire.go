package service

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/storage"
)

// The tagged JSON value encoding of NDJSON streams and hand-written JSON
// /append bodies: lossless, so rows cross without collapsing value kinds
// (rows between cluster processes ride frame bodies instead, framebody.go).
// The /query endpoint's row encoding (jsonValue) maps values
// to their natural JSON forms — good for human clients, but it erases the
// int/float distinction that the engine's canonical tuple encoding (and
// therefore result-equivalence checking) preserves. WireValue instead tags
// every value: null, {"i":"<int64>"} (string payload — JSON numbers lose
// precision past 2^53), {"f":<float64>} or {"s":"<string>"}.

// WireValue wraps one storage.Value for tagged JSON transport.
type WireValue struct{ V storage.Value }

// MarshalJSON encodes the value with an explicit kind tag.
func (w WireValue) MarshalJSON() ([]byte, error) {
	switch w.V.Kind() {
	case storage.KindNull:
		return []byte("null"), nil
	case storage.KindInt:
		return []byte(`{"i":"` + strconv.FormatInt(w.V.Int64(), 10) + `"}`), nil
	case storage.KindFloat:
		f := w.V.Float64()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("service: cannot encode non-finite float %v", f)
		}
		return json.Marshal(map[string]float64{"f": f})
	case storage.KindString:
		return json.Marshal(map[string]string{"s": w.V.Str()})
	}
	return nil, fmt.Errorf("service: cannot encode value kind %v", w.V.Kind())
}

// UnmarshalJSON decodes a tagged value.
func (w *WireValue) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		w.V = storage.Null
		return nil
	}
	var tag struct {
		I *string  `json:"i"`
		F *float64 `json:"f"`
		S *string  `json:"s"`
	}
	if err := json.Unmarshal(data, &tag); err != nil {
		return fmt.Errorf("service: bad wire value %q: %w", data, err)
	}
	switch {
	case tag.I != nil:
		n, err := strconv.ParseInt(*tag.I, 10, 64)
		if err != nil {
			return fmt.Errorf("service: bad wire int %q: %w", *tag.I, err)
		}
		w.V = storage.Int(n)
	case tag.F != nil:
		w.V = storage.Float(*tag.F)
	case tag.S != nil:
		w.V = storage.StringVal(*tag.S)
	default:
		return fmt.Errorf("service: wire value %q carries no kind tag", data)
	}
	return nil
}

// WireColumn is one schema column on the wire.
type WireColumn struct {
	Name string `json:"name"`
	Type string `json:"type"` // INT | FLOAT | STRING
}

// WireColumns converts a schema's columns to their wire form: the header
// line of the NDJSON stream and the column block of a frame body's header.
func WireColumns(cols []storage.Column) []WireColumn {
	out := make([]WireColumn, len(cols))
	for i, c := range cols {
		out[i] = WireColumn{Name: c.Name, Type: c.Type.String()}
	}
	return out
}

// DecodeColumns converts wire columns back to schema columns, validating
// the type names.
func DecodeColumns(wc []WireColumn) ([]storage.Column, error) {
	cols := make([]storage.Column, len(wc))
	for i, c := range wc {
		var typ storage.ColumnType
		switch c.Type {
		case "INT":
			typ = storage.TypeInt
		case "FLOAT":
			typ = storage.TypeFloat
		case "STRING":
			typ = storage.TypeString
		default:
			return nil, fmt.Errorf("service: unknown wire column type %q", c.Type)
		}
		cols[i] = storage.Column{Name: c.Name, Type: typ}
	}
	return cols, nil
}
