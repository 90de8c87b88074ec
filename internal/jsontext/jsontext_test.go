package jsontext

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestAppendMatchesEncodingJSON: strings and floats come out as
// encoding/json writes them, HTML escaping and exponent cutoffs included.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "plain", `q"b\s/`, "<a&b>", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"\xe2\x80\xa8\xe2\x80\xa9", "\xff\xfe", "cut \xe2\x80", "caf\xc3\xa9 \xe2\x80\x94 \xf0\x9f\x98\x80"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 9.999999999999999e-7, 1e-6, 0.1, 123456.789,
		1e20, 999999999999999900000, 1e21, 1.5e300, math.MaxFloat64, -2.5e-9} {
		want, _ := json.Marshal(f)
		if got, err := AppendFloat(nil, f); err != nil || string(got) != string(want) {
			t.Errorf("AppendFloat(%g) = %s, %v; encoding/json %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%g) accepted what encoding/json refuses", f)
		}
	}
}

// record is what the decoder test reads: one member of each reader.
type record struct {
	S string  `json:"s"`
	I int64   `json:"i"`
	N int     `json:"n"`
	U uint64  `json:"u"`
	F float64 `json:"f"`
	B bool    `json:"b"`
}

var recordFields = []string{"s", "i", "n", "u", "f", "b"}

func decodeRecord(text string) (record, error) {
	var r record
	d := NewDecoder(text)
	if d.Object() {
		for d.More('}') {
			switch Field(d.Key(), recordFields) {
			case "s":
				d.String(&r.S)
			case "i":
				d.Int64(&r.I)
			case "n":
				d.Int(&r.N)
			case "u":
				d.Uint64(&r.U)
			case "f":
				d.Float64(&r.F)
			case "b":
				d.Bool(&r.B)
			default:
				d.Skip()
			}
		}
	}
	return r, d.End()
}

// TestDecoderAgreesWithEncodingJSON: what the decoder accepts, encoding/json
// accepts with the same value, and each malformed text is refused.
func TestDecoderAgreesWithEncodingJSON(t *testing.T) {
	accepted := []string{
		`{}`, ` null `, `{"s":"x","i":-0,"n":7,"u":18446744073709551615,"f":-1.5e-7,"b":true}`,
		`{"S":"folded","I":3}`, `{"s":null,"i":null,"b":null}`, `{"s":"a","s":"b"}`,
		`{"s":"esc \" \\ \/ \b \f \n \r \t \u00e9 \ud83d\ude00 \ud800 \udc00x"}`,
		"{\"s\":\"raw \xff\xfe bytes\"}", `{"skip":{"a":[1,{"b":null},"c",true,false,-0.5E+3]},"i":1}`,
		"{\"s\"\t:\r\n\"ws\" , \"b\" : false}", `{"f":1e-400}`,
	}
	for _, text := range accepted {
		got, err := decodeRecord(text)
		if err != nil {
			t.Errorf("%s: refused: %v", text, err)
			continue
		}
		var want record
		if err := json.Unmarshal([]byte(text), &want); err != nil {
			t.Errorf("%s: accepted what encoding/json refuses: %v", text, err)
		} else if got != want {
			t.Errorf("%s: decoded %+v, encoding/json %+v", text, got, want)
		}
	}
	refused := []string{
		``, `{`, `{"s":"x"`, `{"s":"x",}`, `{,}`, `{"s" "x"}`, `{"s":"x"}}`, `{"s":"x"} x`, `{"s":'x'}`,
		`{"s":"bad \x"}`, `{"s":"bad \u12"}`, "{\"s\":\"ctl \x01\"}", `{"i":1.5}`, `{"i":1e3}`, `{"i":01}`,
		`{"i":9223372036854775808}`, `{"u":-1}`, `{"f":1e400}`, `{"f":.5}`, `{"f":+1}`, `{"f":-}`, `{"f":1.}`,
		`{"f":1e}`, `{"b":"true"}`, `{"b":tru}`, `{"s":1}`, `[1]`, `{"skip":[1 2]}`, `{"skip":{"a" 1}}`,
		`{"skip":[}`, `{"skip":nul}`, strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	}
	for _, text := range refused {
		if _, err := decodeRecord(text); err == nil {
			t.Errorf("%s: accepted", text)
		}
	}
}
