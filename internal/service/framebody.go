package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/storage"
	"repro/internal/stream"
)

// Rows pushed to a node — a peer's shuffle delivery, a coordinator's routed
// append — are one request body shape, the response stream's turned round
// (Content-Type application/x-windowdb-frame): a header frame whose JSON
// names the columns, the rows as columnar batches, and a trailer frame whose
// row_count must be what arrived — a body cut anywhere, a frame boundary
// included, is never taken for a short batch.

// frameChunk is the most rows a pushed body packs into one batch frame.
const frameChunk = 512

// postFrames POSTs rows to url as a streamed frame body under hdr and
// returns the 2xx response, which the caller closes; any other status is a
// *RemoteError. Neither side materializes the body, and the goroutine that
// writes it has ended by the time postFrames returns.
func postFrames(ctx context.Context, hc *http.Client, url string, hdr any, rows []storage.Tuple, arity int) (*http.Response, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	written := make(chan struct{})
	defer func() {
		// A request that ended before its body did leaves the writer blocked
		// on the pipe: closing the read end ends it.
		pr.Close()
		<-written
	}()
	go func() {
		defer close(written)
		fw := stream.NewFrameWriter(pw)
		payload, err := json.Marshal(hdr)
		if err == nil {
			err = fw.WriteHeader(payload)
		}
		for off := 0; err == nil && off < len(rows); off += frameChunk {
			err = fw.WriteTuples(rows[off:min(off+frameChunk, len(rows))], arity)
		}
		if err == nil {
			payload, err = json.Marshal(StreamTrailer{Done: true, RowCount: int64(len(rows))})
		}
		if err == nil {
			err = fw.WriteTrailer(payload)
		}
		pw.CloseWithError(err)
	}()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: POST %s: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, DecodeRemoteError(url, resp)
	}
	return resp, nil
}

// readFrameBody is the receiving half: it decodes the header frame into hdr,
// hands every batch's rows to sink as they arrive, and returns how many
// there were once the trailer has confirmed the count and ended the body.
func readFrameBody(body io.Reader, hdr interface{ arity() int }, sink func([]storage.Tuple) error) (int64, error) {
	fr := stream.NewFrameReader(body)
	f, err := fr.Next()
	if err == nil && f.Type != stream.FrameHeader {
		err = fmt.Errorf("first frame is %c, want header", f.Type)
	}
	if err == nil {
		err = json.Unmarshal(f.Payload, hdr)
	}
	if err != nil {
		return 0, fmt.Errorf("service: reading frame body header: %w", err)
	}
	var (
		n int64
		b stream.Batch // every batch frame decodes into it; sink gets tuples of their own
	)
	for {
		f, err := fr.Next()
		if err != nil {
			return n, fmt.Errorf("service: frame body cut before trailer: %w", err)
		}
		switch f.Type {
		case stream.FrameBatch:
			if err := stream.DecodeBatchInto(&b, f.Payload, hdr.arity()); err != nil {
				return n, fmt.Errorf("service: frame body: %w", err)
			}
			if b.Len() == 0 {
				continue
			}
			n += int64(b.Len())
			if err := sink(b.Tuples()); err != nil {
				return n, err
			}
		case stream.FrameTrailer:
			var trailer StreamTrailer
			if err := json.Unmarshal(f.Payload, &trailer); err != nil {
				return n, fmt.Errorf("service: bad frame body trailer: %w", err)
			}
			if trailer.RowCount != n {
				return n, fmt.Errorf("service: frame body trailer counts %d rows, received %d", trailer.RowCount, n)
			}
			if _, err := fr.Next(); err != io.EOF {
				return n, errors.New("service: bytes after the frame body's trailer")
			}
			return n, nil
		default:
			return n, fmt.Errorf("service: unexpected %c frame in frame body", f.Type)
		}
	}
}
