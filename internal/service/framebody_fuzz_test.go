package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/stream"
)

// FuzzReadFrameBody drives readFrameBody, the reader every pushed body —
// an /append from a client, a shuffle delivery from a peer, in process or
// over /shard/shuffle, a table a coordinator registers — goes through. On any input it returns an error or
// the trailer-confirmed row count and never panics, and it hands the sink
// only whole batches: every tuple as wide as the header's columns, the rows
// adding up to the count it returns.
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
	f.Add(stageBody(f))
	f.Add(registerBody(f))

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

// stageBody is the frame body a shuffle stage ships: a chain whose derived
// column is a tail vector and whose ws_pad strings a spill read back into
// its arena, encoded by encodeShuffle for one peer.
func stageBody(tb testing.TB) []byte {
	eng := windowdb.New(windowdb.Config{SortMemBytes: 8 << 10, BlockSize: 1024, Parallelism: 1})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 300, Seed: 1, PadBytes: 24}))
	prep, err := eng.Prepare(`SELECT ws_pad, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_pad) AS r FROM web_sales`)
	if err != nil {
		tb.Fatal(err)
	}
	runner := prep.Segments()
	in, err := runner.FilterBase(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	chain, _, err := runner.Run(context.Background(), 0, in)
	if err != nil {
		tb.Fatal(err)
	}
	defer chain.Release()
	if len(chain.Tail) == 0 || !chain.ArenaStrings() {
		tb.Fatal("the seed's chain has no tail column or no spilled string")
	}
	hdr := shuffleHeader{ShuffleID: "seed", Round: 1, streamHeader: streamHeader{Columns: WireColumns(chain.Schema.Columns)}}
	bodies, err := encodeShuffle(chain, nil, 1, hdr)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := readFrameBody(bytes.NewReader(bodies[0]), &streamHeader{}, func([]storage.Tuple) error { return nil })
	if err != nil || n != int64(chain.Len()) {
		tb.Fatalf("the stage body reads back %d of %d rows: %v", n, chain.Len(), err)
	}
	return bodies[0]
}

// registerBody is the /shard/register body of a table whose FLOAT column
// holds NaN, +Inf and −Inf and whose rows hold a NULL, encoded by
// encodeRegister; it must read back whole.
func registerBody(tb testing.TB) []byte {
	t := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "k", Type: storage.TypeInt},
		storage.Column{Name: "f", Type: storage.TypeFloat},
	))
	for i, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.MustAppend(storage.Tuple{storage.Int(int64(i)), storage.Float(f)})
	}
	t.MustAppend(storage.Tuple{storage.Int(3), storage.Null})
	body, err := encodeRegister("seed", t)
	if err != nil {
		tb.Fatal(err)
	}
	var hdr registerHeader
	n, err := readFrameBody(bytes.NewReader(body), &hdr, func([]storage.Tuple) error { return nil })
	if err != nil || n != int64(t.Len()) || hdr.Table != "seed" {
		tb.Fatalf("the register body reads back %d of %d rows of %q: %v", n, t.Len(), hdr.Table, err)
	}
	return body
}
