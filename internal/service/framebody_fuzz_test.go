package service

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/storage"
	"repro/internal/stream"
)

// FuzzReadFrameBody drives readFrameBody, the reader every pushed body —
// an /append from a client, a /shard/shuffle delivery from a peer — goes
// through. On any input it returns an error or the trailer-confirmed row
// count and never panics, and it hands the sink only whole batches: every
// tuple as wide as the header's columns, the rows adding up to the count
// it returns.
func FuzzReadFrameBody(f *testing.F) {
	rows := func(n int) []storage.Tuple {
		out := make([]storage.Tuple, n)
		for i := range out {
			out[i] = storage.Tuple{storage.Int(int64(i)), storage.StringVal("x"), storage.Null}
		}
		return out
	}
	var good bytes.Buffer
	fw := stream.NewFrameWriter(&good)
	if err := fw.WriteHeader([]byte(`{"columns":[{},{},{}]}`)); err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{2, 3} {
		if err := fw.WriteTuples(rows(n), 3); err != nil {
			f.Fatal(err)
		}
	}
	if err := fw.WriteTrailer([]byte(`{"done":true,"row_count":5}`)); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-12]) // cut inside the trailer frame
	// A batch frame declaring a payload far past the frame limit.
	hostile := append([]byte{}, good.Bytes()[:len(stream.FrameMagic)+5+len(`{"columns":[{},{},{}]}`)]...)
	hostile = binary.LittleEndian.AppendUint32(append(hostile, stream.FrameBatch), 0xfffffff0)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr streamHeader
		var delivered int64
		n, _ := readFrameBody(bytes.NewReader(data), &hdr, func(batch []storage.Tuple) error {
			for _, tup := range batch {
				if len(tup) != hdr.arity() {
					t.Fatalf("sink got a %d-wide tuple under a %d-column header", len(tup), hdr.arity())
				}
			}
			delivered += int64(len(batch))
			return nil
		})
		if n != delivered {
			t.Fatalf("reader reports %d rows, the sink got %d", n, delivered)
		}
	})
}
