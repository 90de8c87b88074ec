package service

import (
	"context"
	"strings"
	"testing"
	"time"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/storage"
)

func shuffleTestService() *Service {
	eng := windowdb.New(windowdb.Config{SortMemBytes: 1 << 20, Parallelism: 1})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 100, Seed: 1}))
	return New(eng, Config{})
}

func testBatch(id string, round, sender int, n int) *ShuffleBatch {
	cols := []storage.Column{{Name: "a", Type: storage.TypeInt}}
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{storage.Int(int64(i))}
	}
	return &ShuffleBatch{ID: id, Round: round, Sender: sender, Cols: cols, Rows: rows}
}

// TestShuffleInboxRoundTrip: batches accumulate per (id, round), take
// requires completeness, and a consumed buffer is gone.
func TestShuffleInboxRoundTrip(t *testing.T) {
	s := shuffleTestService()
	ctx := context.Background()
	if err := s.ShuffleAccept(ctx, testBatch("q1", 1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.ShuffleAccept(ctx, testBatch("q1", 1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Incomplete: only 2 of 3 senders delivered.
	schema := storage.NewSchema(storage.Column{Name: "a", Type: storage.TypeInt})
	if _, err := s.takeShuffle("q1", 1, 3, schema); err == nil {
		t.Fatal("take of an incomplete buffer must fail")
	}
	// takeShuffle removed the buffer even on failure; re-deliver fully.
	for sender := 0; sender < 2; sender++ {
		if err := s.ShuffleAccept(ctx, testBatch("q1", 1, sender, 2)); err != nil {
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
	// Duplicate sender delivery is rejected.
	if err := s.ShuffleAccept(ctx, testBatch("q2", 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.ShuffleAccept(ctx, testBatch("q2", 1, 0, 1)); err == nil {
		t.Fatal("duplicate sender must be rejected")
	}
}

// TestShuffleDropTombstone: a delivery landing after the coordinator's
// cleanup drop must be rejected, not silently re-create the buffer — the
// straggler race of a peer still streaming when a failed query's drop
// arrives.
func TestShuffleDropTombstone(t *testing.T) {
	s := shuffleTestService()
	ctx := context.Background()
	if err := s.ShuffleAccept(ctx, testBatch("doomed", 1, 0, 5)); err != nil {
		t.Fatal(err)
	}
	s.ShuffleDrop("doomed")
	if got := s.shuffleBuffered(); got != 0 {
		t.Fatalf("%d buffers left after drop", got)
	}
	err := s.ShuffleAccept(ctx, testBatch("doomed", 2, 1, 5))
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("straggler after drop: err = %v, want dropped rejection", err)
	}
	if got := s.shuffleBuffered(); got != 0 {
		t.Fatalf("straggler re-created %d buffers past the tombstone", got)
	}
	// A fresh shuffle id is unaffected.
	if err := s.ShuffleAccept(ctx, testBatch("fresh", 1, 0, 1)); err != nil {
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
	ctx := context.Background()
	if err := s.ShuffleAccept(ctx, testBatch("orphan", 1, 0, 8)); err != nil {
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
	if err := s2.ShuffleAccept(ctx, testBatch("kept", 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	age(s2, 24*time.Hour)
	s2.Stats()
	if got := s2.shuffleBuffered(); got != 1 {
		t.Fatalf("buffered = %d with expiry disabled, want 1", got)
	}
}
