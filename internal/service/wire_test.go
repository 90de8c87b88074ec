package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro"
	"repro/internal/storage"
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
}

// TestWireTableRoundTrip: schema and rows survive; canonical encodings are
// bit-identical (the property shard result-equivalence checks rest on).
func TestWireTableRoundTrip(t *testing.T) {
	schema := storage.NewSchema(
		storage.Column{Name: "a", Type: storage.TypeInt},
		storage.Column{Name: "b", Type: storage.TypeFloat},
		storage.Column{Name: "c", Type: storage.TypeString},
	)
	tab := storage.NewTable(schema)
	tab.MustAppend(storage.Tuple{storage.Int(1), storage.Float(1.5), storage.StringVal("x")})
	tab.MustAppend(storage.Tuple{storage.Null, storage.Int(7), storage.Null}) // mixed kind in a FLOAT column

	buf, err := json.Marshal(EncodeTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	var wt WireTable
	if err := json.Unmarshal(buf, &wt); err != nil {
		t.Fatal(err)
	}
	back, err := wt.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema.Len() != 3 || back.Schema.Columns[1].Type != storage.TypeFloat {
		t.Fatalf("schema mangled: %+v", back.Schema)
	}
	for i := range tab.Rows {
		got := storage.AppendTuple(nil, back.Rows[i])
		want := storage.AppendTuple(nil, tab.Rows[i])
		if !slices.Equal(got, want) {
			t.Fatalf("row %d canonical encoding differs", i)
		}
	}
}

// TestWireTableDecodeErrors rejects malformed wire tables.
func TestWireTableDecodeErrors(t *testing.T) {
	if _, err := (WireTable{Columns: []WireColumn{{Name: "a", Type: "BLOB"}}}).Decode(); err == nil {
		t.Fatal("unknown column type must fail")
	}
	wt := WireTable{
		Columns: []WireColumn{{Name: "a", Type: "INT"}},
		Rows:    [][]WireValue{{{V: storage.Int(1)}, {V: storage.Int(2)}}},
	}
	if _, err := wt.Decode(); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	var wv WireValue
	if err := json.Unmarshal([]byte(`{"x":1}`), &wv); err == nil {
		t.Fatal("untagged wire value must fail")
	}
	if err := json.Unmarshal([]byte(`{"i":"not-a-number"}`), &wv); err == nil {
		t.Fatal("bad int payload must fail")
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
