package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzQueryRequest holds the hand codec of the /query request body to
// encoding/json. A request built from the input encodes to exactly the
// bytes encoding/json writes, and decodes to what encoding/json decodes.
// And the input itself, as a body: the decoder never panics, and what it
// accepts encoding/json accepts too, with an equal value — case-folded
// member names and skipped unknown members included.
func FuzzQueryRequest(f *testing.F) {
	const s = `SELECT "quoted" <a&b> \ ` + "\x00\x1f\x7f\xe2\x80\xa8\xff--\xe2\x80\x94"
	f.Add(s, 0, int64(0), false, false, `{"sql":"SELECT 1"}`)
	f.Add(s, 300, int64(2000), true, true, `{"SQL":"x","Max_Rows":3,"TIMEOUT_MS":-1,"stream":null,"subscribe":true}`)
	f.Add("", -1, int64(-9), true, false, `{"sql":"x","unknown":[{"a":[1,2e3,-0.5,true,null]}],"max_rows":1}`)
	f.Add("x", 1<<40, int64(1)<<62, false, true, `{"sql":"😀é\/","max_rows":1.5}`)
	f.Add("x", 0, int64(0), false, false, `{"sql":"a","sql":"b","ſql":"c","max_rows":99999999999999999999}`)
	f.Add("x", 0, int64(0), false, false, `null`)
	f.Add("x", 0, int64(0), false, false, ` {"stream":true} x`)

	f.Fuzz(func(t *testing.T, sqlText string, maxRows int, timeout int64, stream, subscribe bool, payload string) {
		q := queryRequest{SQL: sqlText, MaxRows: maxRows, TimeoutMillis: timeout, Stream: stream, Subscribe: subscribe}
		got := q.appendJSON(nil)
		want, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder wrote\n%s\nencoding/json wrote\n%s", got, want)
		}
		var dec, ref queryRequest
		if err := dec.decode(string(got)); err != nil {
			t.Fatalf("decoder refused the encoder's %s: %v", got, err)
		}
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		if dec != ref {
			t.Fatalf("decoded %s to %+v, encoding/json to %+v", got, dec, ref)
		}

		dec, ref = queryRequest{}, queryRequest{}
		if dec.decode(payload) == nil {
			if err := json.Unmarshal([]byte(payload), &ref); err != nil {
				t.Fatalf("decoder accepted %q, encoding/json refuses it: %v", payload, err)
			}
			if dec != ref {
				t.Fatalf("decoded %q to %+v, encoding/json to %+v", payload, dec, ref)
			}
		}
	})
}

// TestClientRequestCanBeResent: a Client's /query request carries GetBody
// and its length, so net/http can send it again on a new connection when
// the server closed the kept-alive one it went out on.
func TestClientRequestCanBeResent(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1}, 300)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	var sent []byte
	hc := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.GetBody == nil {
			t.Fatal("the request has no GetBody")
		}
		body, err := req.GetBody()
		if err != nil {
			t.Fatal(err)
		}
		if sent, err = io.ReadAll(body); err != nil || int64(len(sent)) != req.ContentLength {
			t.Fatalf("GetBody gave %d bytes (%v), ContentLength %d", len(sent), err, req.ContentLength)
		}
		return srv.Client().Transport.RoundTrip(req)
	})}
	rows, err := NewClient(srv.URL, hc).QueryContext(context.Background(), `SELECT empnum FROM emptab`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if want := `{"sql":"SELECT empnum FROM emptab","max_rows":0,"timeout_ms":0,"stream":true}`; string(sent) != want {
		t.Fatalf("GetBody gave %s, want %s", sent, want)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestQueryRequestBodies: /query reads a hand-decoded body, refuses what
// encoding/json refuses with a 400 and a body over maxQueryBody with a 413,
// and a Client's hand-encoded request reaches it whole.
func TestQueryRequestBodies(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 300)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	post := func(body string) (int, map[string]any) {
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&got)
		return resp.StatusCode, got
	}
	status, got := post(`{"SQL":"SELECT empnum FROM emptab","Max_Rows":3,"extra":{"a":[1]}}`)
	if status != http.StatusOK || got["row_count"] != float64(10) || got["truncated"] != true {
		t.Fatalf("status %d, body %v", status, got)
	}
	for _, bad := range []string{``, `{"sql":5}`, `{"sql":"x","max_rows":1.5}`, `{"sql":"x"} {}`, `[]`} {
		if status, got := post(bad); status != http.StatusBadRequest || got["kind"] != "request" {
			t.Fatalf("body %q: status %d, %v", bad, status, got)
		}
	}
	long := `{"sql":"SELECT empnum FROM emptab` + strings.Repeat(" ", maxQueryBody) + `"}`
	if status, got := post(long); status != http.StatusRequestEntityTooLarge || got["kind"] != "request" {
		t.Fatalf("a body of %d bytes: status %d, %v", len(long), status, got)
	}
	rows, err := NewClient(srv.URL, srv.Client()).QueryContext(context.Background(), `SELECT empnum FROM emptab`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil || n != 10 {
		t.Fatalf("%d rows through a Client, %v", n, err)
	}
}
