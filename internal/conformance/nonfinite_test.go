package conformance

import (
	"context"
	"math"
	"net/http/httptest"
	"slices"
	"testing"

	windowdb "repro"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/storage"
)

// nonFiniteTable holds every FLOAT JSON numbers cannot carry, beside a
// finite one and a NULL; k orders it.
func nonFiniteTable() *storage.Table {
	t := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "k", Type: storage.TypeInt},
		storage.Column{Name: "f", Type: storage.TypeFloat},
	))
	for i, f := range []storage.Value{storage.Float(math.NaN()), storage.Float(math.Inf(1)), storage.Float(math.Inf(-1)), storage.Float(1.5), storage.Null} {
		t.MustAppend(storage.Tuple{storage.Int(int64(i)), f})
	}
	return t
}

// TestNonFiniteFloatsInEveryShape: a result holding NaN and ±Inf leaves a
// single engine's front end and a 2-node cluster's coordinator whole in all
// three /query shapes — the buffered JSON body renders them as the strings
// "NaN", "+Inf" and "-Inf", and the NDJSON stream and the binary frames
// carry them back to the client's rows bit for bit.
func TestNonFiniteFloatsInEveryShape(t *testing.T) {
	const src = `SELECT k, f FROM nf ORDER BY k`
	table := nonFiniteTable()

	eng := windowdb.New(engCfg())
	eng.Register("nf", table)
	single := httptest.NewServer(service.New(eng, service.Config{Slots: 1}).Handler())
	defer single.Close()

	nodes := make([]shard.Transport, 2)
	for i := range nodes {
		nodes[i] = shard.NewLocal(service.New(windowdb.New(engCfg()), service.Config{Slots: 1}))
	}
	cluster, err := shard.New(shard.Config{Engine: engCfg()}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.RegisterSharded(context.Background(), "nf", table, "k"); err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(cluster.Handler())
	defer coord.Close()

	wantJSON := []string{`[0,"NaN"]`, `[1,"+Inf"]`, `[2,"-Inf"]`, `[3,1.5]`, `[4,null]`}
	for _, front := range []struct {
		name string
		srv  *httptest.Server
	}{{"service", single}, {"cluster", coord}} {
		t.Run(front.name+"/buffered", func(t *testing.T) {
			if got := viaBufferedHTTP(t, front.srv, src, 0).rows; !slices.Equal(got, wantJSON) {
				t.Errorf("rows %q, want %q", got, wantJSON)
			}
		})
		for _, codec := range []service.WireCodec{service.CodecJSON, service.CodecBinary} {
			t.Run(front.name+"/"+string(codec), func(t *testing.T) {
				res, err := windowdb.Collect(context.Background(), service.NewClientCodec(front.srv.URL, front.srv.Client(), codec), src)
				if err != nil {
					t.Fatal(err)
				}
				if res.Table.Len() != table.Len() {
					t.Fatalf("%d rows, want %d", res.Table.Len(), table.Len())
				}
				for i, row := range res.Table.Rows {
					if got, want := storage.AppendTuple(nil, row), storage.AppendTuple(nil, table.Rows[i]); !slices.Equal(got, want) {
						t.Errorf("row %d: %v, want %v", i, row, table.Rows[i])
					}
				}
			})
		}
	}
}
