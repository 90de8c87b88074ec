package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro"
	"repro/internal/storage"
	"repro/internal/stream"
)

// TestWireValueRoundTrip: every kind survives the tagged encoding exactly,
// including int64s past 2^53 (where plain JSON numbers lose precision) and
// the int/float distinction the canonical tuple encoding observes.
func TestWireValueRoundTrip(t *testing.T) {
	vals := []storage.Value{
		storage.Null,
		storage.Int(0),
		storage.Int(-42),
		storage.Int(1<<62 + 12345), // would corrupt as a JSON number
		storage.Float(0),
		storage.Float(2), // must stay a float, not collapse to int 2
		storage.Float(-3.25),
		storage.StringVal(""),
		storage.StringVal(`quotes " and unicode ✓`),
	}
	for _, v := range vals {
		buf, err := json.Marshal(WireValue{V: v})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var back WireValue
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if back.V.Kind() != v.Kind() || !storage.Equal(back.V, v) {
			t.Fatalf("round trip %v (%v) -> %v (%v)", v, v.Kind(), back.V, back.V.Kind())
		}
	}
	var wv WireValue
	if err := json.Unmarshal([]byte(`{"x":1}`), &wv); err == nil {
		t.Fatal("untagged wire value must fail")
	}
	if err := json.Unmarshal([]byte(`{"i":"not-a-number"}`), &wv); err == nil {
		t.Fatal("bad int payload must fail")
	}
}

// TestNonFiniteFloatsOverJSON: JSON numbers hold no NaN or infinity, so
// the tagged encoding carries them as {"f":"NaN"}, {"f":"+Inf"} and
// {"f":"-Inf"} and reads them back, the /query row encoding renders them
// as those strings, and any other string payload is refused.
func TestNonFiniteFloatsOverJSON(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		name string
	}{{math.NaN(), "NaN"}, {math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"}} {
		buf, err := json.Marshal(WireValue{V: storage.Float(tc.f)})
		if err != nil || string(buf) != `{"f":"`+tc.name+`"}` {
			t.Fatalf("%v: %s, %v", tc.f, buf, err)
		}
		var back WireValue
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		if got := back.V; got.Kind() != storage.KindFloat || !slices.Equal(storage.AppendTuple(nil, storage.Tuple{got}), storage.AppendTuple(nil, storage.Tuple{storage.Float(tc.f)})) {
			t.Errorf("%s came back as %v", buf, got)
		}
		if got := JSONValue(storage.Float(tc.f)); got != tc.name {
			t.Errorf("JSONValue(%v) = %v, want %q", tc.f, got, tc.name)
		}
	}
	var wv WireValue
	if err := json.Unmarshal([]byte(`{"f":"Infinity"}`), &wv); err == nil {
		t.Fatal("an unknown float name must fail")
	}
}

// TestRegisterRoundTrip: a table sent to /shard/register keeps its schema
// and rows; canonical encodings are bit-identical (the property shard
// result-equivalence checks rest on), non-finite floats and ints past 2^53
// included.
func TestRegisterRoundTrip(t *testing.T) {
	svc := New(windowdb.New(windowdb.Config{}), Config{ShardRoutes: true})
	node := httptest.NewServer(svc.Handler())
	defer node.Close()
	schema := storage.NewSchema(
		storage.Column{Name: "a", Type: storage.TypeInt},
		storage.Column{Name: "b", Type: storage.TypeFloat},
		storage.Column{Name: "c", Type: storage.TypeString},
	)
	tab := storage.NewTable(schema)
	tab.MustAppend(storage.Tuple{storage.Int(1<<62 + 12345), storage.Float(1.5), storage.StringVal("x")})
	tab.MustAppend(storage.Tuple{storage.Null, storage.Int(7), storage.Null}) // mixed kind in a FLOAT column
	tab.MustAppend(storage.Tuple{storage.Int(-1), storage.Float(math.NaN()), storage.StringVal("")})
	tab.MustAppend(storage.Tuple{storage.Int(2), storage.Float(math.Inf(-1)), storage.StringVal(`quotes " ✓`)})

	if err := SendRegisterHTTP(context.Background(), node.Client(), node.URL, "t", tab); err != nil {
		t.Fatal(err)
	}
	back, err := svc.Engine().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Schema.Columns, schema.Columns) || back.Len() != tab.Len() {
		t.Fatalf("registered %+v with %d rows, sent %+v with %d", back.Schema.Columns, back.Len(), schema.Columns, tab.Len())
	}
	for i := range tab.Rows {
		got := storage.AppendTuple(nil, back.Rows[i])
		want := storage.AppendTuple(nil, tab.Rows[i])
		if !slices.Equal(got, want) {
			t.Fatalf("row %d canonical encoding differs", i)
		}
	}
}

// TestRegisterRejectsBadBodies: /shard/register takes a frame body only
// (415 otherwise, unread), and a body naming an unknown column type or no
// table, with rows wider than its columns, or cut short is a 400 request
// that registers nothing.
func TestRegisterRejectsBadBodies(t *testing.T) {
	svc := New(windowdb.New(windowdb.Config{}), Config{ShardRoutes: true})
	node := httptest.NewServer(svc.Handler())
	defer node.Close()
	// body is a one-row body under a one-column header whose batch is
	// arity columns wide.
	body := func(table, typ string, arity int) []byte {
		hdr := registerHeader{Table: table, streamHeader: streamHeader{Columns: []WireColumn{{Name: "a", Type: typ}}}}
		b, err := encodeFrameBody(hdr, 1, &stream.Batch{}, func(b *stream.Batch, _, _ int) error {
			return b.FillTuples([]storage.Tuple{storage.Tuple{storage.Int(1), storage.Int(2)}[:arity]}, arity)
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := body("t", "INT", 1)
	for name, b := range map[string][]byte{
		"unknown type": body("t", "BLOB", 1),
		"no name":      body("", "INT", 1),
		"arity":        body("t", "INT", 2),
		"cut":          good[:len(good)-3],
	} {
		_, err := postBody(context.Background(), node.Client(), node.URL+"/shard/register", b)
		var re *RemoteError
		if !errors.As(err, &re) || re.Status != http.StatusBadRequest || re.Kind != "request" {
			t.Errorf("%s: %v, want a 400 request", name, err)
		}
	}
	resp, err := node.Client().Post(node.URL+"/shard/register", "application/json", bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("a JSON Content-Type: %s, want 415", resp.Status)
	}
	if _, err := svc.Engine().Table("t"); err == nil {
		t.Error("a refused body registered its table")
	}
}

// TestShardRoutesGated: the /shard/* node surface mounts only when
// Config.ShardRoutes is set — a public single-engine server must not
// expose the table overwrite endpoint — and no server dumps raw tables.
func TestShardRoutesGated(t *testing.T) {
	public := httptest.NewServer(New(windowdb.New(windowdb.Config{}), Config{}).Handler())
	defer public.Close()
	for _, path := range []string{"/shard/query", "/shard/register", "/shard/distinct"} {
		resp, err := public.Client().Get(public.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s on a public server: %s, want 404", path, resp.Status)
		}
	}
	node := httptest.NewServer(New(windowdb.New(windowdb.Config{}), Config{ShardRoutes: true}).Handler())
	defer node.Close()
	for path, want := range map[string]int{
		"/shard/distinct?table=missing": http.StatusNotFound, // unknown table, but the route exists
		"/shard/distinct":               http.StatusBadRequest,
		"/shard/table?name=emptab":      http.StatusNotFound, // no such route on any server
	} {
		resp, err := node.Client().Get(node.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("shard node %s: %s, want %d", path, resp.Status, want)
		}
	}
}
