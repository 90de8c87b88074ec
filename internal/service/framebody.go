package service

import (
	"bytes"
	"context"
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
// included, is never taken for a short batch. A sender encodes the whole
// body in memory (encodeFrameBody) before it ships it, so what it read the
// rows out of can be let go first; a receiver reads it with readFrameBody.

// frameChunk is the most rows a pushed body packs into one batch frame.
const frameChunk = 512

// encodeFrameBody encodes one pushed body: hdr as the header frame, n rows
// in batch frames of at most frameChunk, and a trailer counting them. fill
// refills b with the k rows from off on; b is the caller's, so a caller
// encoding several bodies fills one batch's vectors throughout.
func encodeFrameBody(hdr metaHeader, n int, b *stream.Batch, fill func(b *stream.Batch, off, k int) error) ([]byte, error) {
	var body bytes.Buffer
	fw := takeFrameWriter(&body)
	defer giveBackFrameWriter(fw)
	err := fw.SendFrame(hdr.appendJSON(fw.BeginFrame(stream.FrameHeader)))
	for off := 0; err == nil && off < n; off += frameChunk {
		if err = fill(b, off, min(frameChunk, n-off)); err == nil {
			err = fw.WriteBatch(b)
		}
	}
	if err == nil {
		err = writeTrailerFrame(fw, &StreamTrailer{Done: true, RowCount: int64(n)})
	}
	return body.Bytes(), err
}

// postBody POSTs an encoded frame body to url and returns the 2xx
// response, which the caller closes; any other status is a *RemoteError.
func postBody(ctx context.Context, hc *http.Client, url string, body []byte) (*http.Response, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
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
func readFrameBody(body io.Reader, hdr metaHeader, sink func([]storage.Tuple) error) (int64, error) {
	work := takeFrameRead(body)
	defer giveBackFrameRead(work)
	fr, b := &work.fr, &work.batch // every batch frame decodes into b; sink gets tuples of their own
	f, err := fr.Next()
	if err == nil && f.Type != stream.FrameHeader {
		err = fmt.Errorf("first frame is %c, want header", f.Type)
	}
	if err == nil {
		err = decodeHeader(f.Payload, hdr)
	}
	if err != nil {
		return 0, fmt.Errorf("service: reading frame body header: %w", err)
	}
	var n int64
	for {
		f, err := fr.Next()
		if err != nil {
			return n, fmt.Errorf("service: frame body cut before trailer: %w", err)
		}
		switch f.Type {
		case stream.FrameBatch:
			if err := stream.DecodeBatchInto(b, f.Payload, hdr.arity()); err != nil {
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
			if err := trailer.UnmarshalJSON(f.Payload); err != nil {
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
