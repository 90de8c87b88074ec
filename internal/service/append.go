package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/stream"
)

// The ingestion surface: POST /append applies one batch of rows to a
// registered table, bumping its data generation (prepared plans survive —
// only the schema generation invalidates them) and waking every SUBSCRIBE
// cursor on the table. Two body encodings, negotiated by Content-Type
// exactly like the response streams:
//
//	application/json                  {"table":"ws","rows":[[{"i":"1"},...],...],"watermark":0}
//	application/x-windowdb-frame      a frame body (framebody.go); ?table=&watermark=
//
// The first is what a client writes by hand, the second what a cluster
// coordinator routes a batch to its owning nodes with and what
// Client.Append sends (SendAppendHTTP). The
// response is JSON either way: {"table","start_rid","rows_appended",
// "watermark"}. The watermark is the coordinator's generation lower bound;
// plain clients leave it 0.

// AppendRequest is the JSON /append body.
type AppendRequest struct {
	Table string        `json:"table"`
	Rows  [][]WireValue `json:"rows"`
	// Watermark is a lower bound on the data generation this append lands
	// at — a cluster coordinator assigns one generation per logical append
	// and ships it to every owning node so replicas converge. 0 for plain
	// clients.
	Watermark uint64 `json:"watermark,omitempty"`
}

// AppendResponse is the JSON /append (and Client.Append) response.
type AppendResponse struct {
	Table        string `json:"table"`
	StartRid     int64  `json:"start_rid"`
	RowsAppended int    `json:"rows_appended"`
	Watermark    uint64 `json:"watermark"`
}

// Append implements Backend: one batch of rows applied to a registered
// table through the engine — validation, data-generation bump,
// subscription wake — and metered. atLeast is the coordinator-assigned
// watermark lower bound (0 locally).
func (s *Service) Append(ctx context.Context, table string, rows []storage.Tuple, atLeast uint64) (AppendResponse, error) {
	if err := ctx.Err(); err != nil {
		return AppendResponse{}, err
	}
	start, wm, err := s.eng.AppendAt(table, rows, atLeast)
	if err != nil {
		return AppendResponse{}, err
	}
	s.metrics.appends.Add(1)
	s.metrics.rowsAppended.Add(uint64(len(rows)))
	return AppendResponse{Table: table, StartRid: start, RowsAppended: len(rows), Watermark: wm}, nil
}

// decodeAppendBody decodes a POST /append request into its metadata and
// rows: the JSON shape by default, the binary columnar frame shape when
// the Content-Type says so (table and watermark then ride the query
// string).
func decodeAppendBody(r *http.Request) (AppendRequest, []storage.Tuple, error) {
	var req AppendRequest
	var rows []storage.Tuple
	if strings.Contains(r.Header.Get("Content-Type"), ContentTypeBinary) {
		req.Table = r.URL.Query().Get("table")
		if wmStr := r.URL.Query().Get("watermark"); wmStr != "" {
			wm, err := strconv.ParseUint(wmStr, 10, 64)
			if err != nil {
				return req, nil, fmt.Errorf("service: bad watermark %q: %w", wmStr, err)
			}
			req.Watermark = wm
		}
		var hdr streamHeader
		if _, err := readFrameBody(r.Body, &hdr, func(batch []storage.Tuple) error {
			rows = append(rows, batch...)
			return nil
		}); err != nil {
			return req, nil, err
		}
	} else {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return req, nil, fmt.Errorf("service: bad append body: %w", err)
		}
		rows = make([]storage.Tuple, len(req.Rows))
		for i, wr := range req.Rows {
			t := make(storage.Tuple, len(wr))
			for j, v := range wr {
				t[j] = v.V
			}
			rows[i] = t
		}
	}
	if req.Table == "" {
		return req, nil, errors.New("service: append without a table name")
	}
	if len(rows) == 0 {
		return req, nil, errors.New("service: append without rows")
	}
	return req, rows, nil
}

// appendStatus maps an append error onto the HTTP status taxonomy:
// unknown table keeps its 404, and any other would-be-500 is a validation
// failure from catalog.Append (arity, column type) — the client's fault,
// not an engine fault — so it becomes a 400 "append".
func appendStatus(err error) (status int, kind string) {
	status, kind = statusFor(err)
	if status == http.StatusInternalServerError && !errors.Is(err, catalog.ErrUnknownTable) {
		status, kind = http.StatusBadRequest, "append"
	}
	return status, kind
}

// SendAppendHTTP ships one batch of rows to a node's /append route as a
// frame body: how a coordinator's routed appends ride the plane every other
// node-bound row does, and how Client.Append sends its rows. The header names no columns beyond their count —
// validating the rows against the table is the node catalog's.
func SendAppendHTTP(ctx context.Context, hc *http.Client, base, table string, rows []storage.Tuple, watermark uint64) (AppendResponse, error) {
	var out AppendResponse
	if len(rows) == 0 {
		return out, errors.New("service: append without rows")
	}
	arity := len(rows[0])
	target := base + "/append?table=" + url.QueryEscape(table) + "&watermark=" + strconv.FormatUint(watermark, 10)
	body, err := encodeFrameBody(&streamHeader{Columns: make([]WireColumn, arity)}, len(rows), &stream.Batch{}, func(b *stream.Batch, off, k int) error {
		return b.FillTuples(rows[off:off+k], arity)
	})
	if err != nil {
		return out, err
	}
	resp, err := postBody(ctx, hc, target, body)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("service: decode append response: %w", err)
	}
	return out, nil
}

// Append ships one batch of rows to the server's /append route as a frame
// body (SendAppendHTTP). The returned watermark is the table's new data
// generation — the value SUBSCRIBE trailers and delta rows report.
func (c *Client) Append(ctx context.Context, table string, rows []storage.Tuple) (AppendResponse, error) {
	return SendAppendHTTP(ctx, c.hc, c.base, table, rows, 0)
}

// Subscribe opens a live maintained cursor over src on the server: the
// initial result streams first (rows tagged "init" in the _op column),
// then the cursor blocks and delta rows arrive as appends land. Cancel ctx
// or Close the Rows to end it. src may carry the SUBSCRIBE prefix or not.
func (c *Client) Subscribe(ctx context.Context, src string) (*windowdb.Rows, error) {
	if _, ok := windowdb.StripSubscribe(src); !ok {
		src = "SUBSCRIBE " + src
	}
	return c.QueryContext(ctx, src)
}
