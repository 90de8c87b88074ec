package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/stream"
)

func shuffleTestService() *Service {
	eng := windowdb.New(windowdb.Config{SortMemBytes: 1 << 20, Parallelism: 1})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 100, Seed: 1}))
	return New(eng, Config{ShardRoutes: true})
}

// testBatch is sender's delivery of n one-column rows into round of
// shuffle id.
func testBatch(id string, round, sender int, n int) *ShuffleBatch {
	return testBatchOf(id, round, sender, n, 1)
}

// testBatchOf is testBatch with rows of arity columns.
func testBatchOf(id string, round, sender, n, arity int) *ShuffleBatch {
	cols := make([]storage.Column, arity)
	for c := range cols {
		cols[c] = storage.Column{Name: fmt.Sprintf("c%d", c), Type: storage.TypeInt}
	}
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = make(storage.Tuple, arity)
		for c := range rows[i] {
			rows[i][c] = storage.Int(int64(i))
		}
	}
	hdr := shuffleHeader{ShuffleID: id, Round: round, Sender: sender, streamHeader: streamHeader{Columns: WireColumns(cols)}}
	body, err := encodeFrameBody(&hdr, n, &stream.Batch{}, func(b *stream.Batch, off, k int) error {
		return b.FillTuples(rows[off:off+k], arity)
	})
	if err != nil {
		panic(err)
	}
	return &ShuffleBatch{ID: id, Round: round, Sender: sender, Body: body}
}

// accept delivers b into s as an in-process peer does.
func accept(s *Service, b *ShuffleBatch) error {
	return s.ShuffleIngest(context.Background(), bytes.NewReader(b.Body))
}

// frameStarts returns the offset of every frame of a frame body, and the
// body's length last.
func frameStarts(body []byte) []int {
	var starts []int
	for at := len(stream.FrameMagic); at < len(body); at += 5 + int(binary.LittleEndian.Uint32(body[at+1:])) {
		starts = append(starts, at)
	}
	return append(starts, len(body))
}

// cut is b with its body cut to n bytes.
func cut(b *ShuffleBatch, n int) *ShuffleBatch {
	c := *b
	c.Body = b.Body[:n]
	return &c
}

// TestShuffleInboxRoundTrip: bodies accumulate per (id, round), take
// requires completeness, a consumed buffer is gone, and a body the inbox
// refuses — over either carrier — leaves the buffer as it was.
func TestShuffleInboxRoundTrip(t *testing.T) {
	s := shuffleTestService()
	if err := accept(s, testBatch("q1", 1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := accept(s, testBatch("q1", 1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Incomplete: only 2 of 3 senders delivered.
	schema := storage.NewSchema(storage.Column{Name: "a", Type: storage.TypeInt})
	if _, err := s.takeShuffle("q1", 1, 3, schema); err == nil {
		t.Fatal("take of an incomplete buffer must fail")
	}
	// takeShuffle removed the buffer even on failure; re-deliver fully.
	for sender := 0; sender < 2; sender++ {
		if err := accept(s, testBatch("q1", 1, sender, 2)); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := s.takeShuffle("q1", 1, 2, schema)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 4 {
		t.Fatalf("took %d rows, want 4", tab.Len())
	}
	if got := s.shuffleBuffered(); got != 0 {
		t.Fatalf("%d buffers left after take", got)
	}

	// Every body the inbox refuses, against a buffer of shuffle id holding
	// sender 0's three rows.
	s.ShuffleDrop("gone")
	refused := func(id string) map[string]*ShuffleBatch {
		wide := testBatch(id, 1, 1, 2*frameChunk)
		at := frameStarts(wide.Body) // header, two batches, trailer, end
		return map[string]*ShuffleBatch{
			"duplicate":          testBatch(id, 1, 0, 1),
			"cut in a batch":     cut(wide, at[1]+7),
			"cut at a boundary":  cut(wide, at[2]),
			"cut in the trailer": cut(wide, at[4]-2),
			"wrong arity":        testBatchOf(id, 1, 1, 2, 2),
			"dropped id":         testBatch("gone", 1, 1, 2),
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	carriers := map[string]func(b *ShuffleBatch) error{
		"in-process": func(b *ShuffleBatch) error { return accept(s, b) },
		"http": func(b *ShuffleBatch) error {
			return SendShuffleHTTP(context.Background(), srv.Client(), srv.URL, b)
		},
	}
	for carrier, deliver := range carriers {
		id := "q2-" + carrier
		if err := deliver(testBatch(id, 1, 0, 3)); err != nil {
			t.Fatal(err)
		}
		for name, b := range refused(id) {
			err := deliver(b)
			if !errors.Is(err, ErrRefused) {
				t.Fatalf("%s/%s: %v, want a refusal", carrier, name, err)
			}
			var re *RemoteError
			if carrier == "http" && (!errors.As(err, &re) || re.Status != http.StatusInternalServerError) {
				t.Fatalf("%s/%s: %v, want 500 refused", carrier, name, err)
			}
			s.inbox.mu.Lock()
			var senders []int
			rows := 0
			for sender, r := range s.inbox.bufs[shuffleKey(id, 1)].senders {
				senders, rows = append(senders, sender), rows+len(r)
			}
			_, revived := s.inbox.bufs[shuffleKey("gone", 1)]
			s.inbox.mu.Unlock()
			if rows != 3 || fmt.Sprint(senders) != "[0]" || revived {
				t.Fatalf("%s/%s: the buffer holds %d rows from senders %v after the refusal (dropped id revived: %v), want 3 from sender 0",
					carrier, name, rows, senders, revived)
			}
		}
		s.ShuffleDrop(id)
	}
}

// TestShuffleDropTombstone: a delivery landing after the coordinator's
// cleanup drop must be rejected, not silently re-create the buffer — the
// straggler race of a peer still streaming when a failed query's drop
// arrives.
func TestShuffleDropTombstone(t *testing.T) {
	s := shuffleTestService()
	if err := accept(s, testBatch("doomed", 1, 0, 5)); err != nil {
		t.Fatal(err)
	}
	s.ShuffleDrop("doomed")
	if got := s.shuffleBuffered(); got != 0 {
		t.Fatalf("%d buffers left after drop", got)
	}
	err := accept(s, testBatch("doomed", 2, 1, 5))
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("straggler after drop: err = %v, want dropped rejection", err)
	}
	if got := s.shuffleBuffered(); got != 0 {
		t.Fatalf("straggler re-created %d buffers past the tombstone", got)
	}
	// A fresh shuffle id is unaffected.
	if err := accept(s, testBatch("fresh", 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	s.ShuffleDrop("fresh")
}

// TestShuffleBufferTTL: a buffer whose coordinator died (no take, no
// drop) expires once it has sat idle past the configured TTL — swept lazily
// by Stats and by later shuffle activity — so nodes cannot leak
// intermediate rows forever. The test ages buffers by moving their touched
// stamp back, not by waiting.
func TestShuffleBufferTTL(t *testing.T) {
	age := func(s *Service, by time.Duration) {
		s.inbox.mu.Lock()
		defer s.inbox.mu.Unlock()
		for _, b := range s.inbox.bufs {
			b.touched = b.touched.Add(-by)
		}
	}
	eng := windowdb.New(windowdb.Config{SortMemBytes: 1 << 20, Parallelism: 1})
	s := New(eng, Config{ShuffleTTL: time.Minute})
	if err := accept(s, testBatch("orphan", 1, 0, 8)); err != nil {
		t.Fatal(err)
	}
	s.Stats() // the periodic sweep trigger
	if got := s.shuffleBuffered(); got != 1 {
		t.Fatalf("buffered = %d after a sweep inside the TTL, want 1", got)
	}
	age(s, 2*time.Minute)
	s.Stats()
	if got := s.shuffleBuffered(); got != 0 {
		t.Fatalf("buffered = %d after TTL sweep, want 0", got)
	}
	// Negative TTL disables expiry.
	s2 := New(eng, Config{ShuffleTTL: -1})
	if err := accept(s2, testBatch("kept", 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	age(s2, 24*time.Hour)
	s2.Stats()
	if got := s2.shuffleBuffered(); got != 1 {
		t.Fatalf("buffered = %d with expiry disabled, want 1", got)
	}
}
