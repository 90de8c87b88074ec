// Package delta is the mutation-and-maintenance subsystem: a per-table
// append bus (Hub) plus an incremental re-evaluator (Maintainer) that
// keeps a prepared window query's output current under appends without
// recomputing the whole chain. The maintenance strategy exploits the
// frame structure the paper's executor is built on — RANGE/ROWS frames
// ending at CURRENT ROW only depend on a bounded neighborhood near each
// partition's tail, and rank-based functions patch per partition — so a
// batch landing in a few partitions touches a few partition tails, not
// the table.
package delta

import (
	"errors"
	"strings"
	"sync"

	"repro/internal/storage"
)

// ErrLagged reports that a subscription's delivery buffer overflowed and
// the hub dropped it: the subscriber was too slow for the append rate and
// must re-subscribe (getting a fresh snapshot) rather than silently miss
// deltas.
var ErrLagged = errors.New("delta: subscription lagged behind appends")

// Batch is one published append: the stored (validated, coerced) rows,
// the global row index of the first one, and the table's data generation
// after the append — the watermark subscribers see.
type Batch struct {
	Table    string
	Rows     []storage.Tuple
	StartRid int64
	Gen      uint64
}

// Hub fans appends out to per-table subscribers. Publish never blocks:
// a subscriber whose buffer is full is closed with ErrLagged instead of
// back-pressuring the ingest path. Table names are case-insensitive,
// matching the catalog.
type Hub struct {
	mu   sync.Mutex
	subs map[string]map[*Sub]struct{}
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[string]map[*Sub]struct{})}
}

// DefaultSubBuffer is the delivery buffer of Subscribe when buf <= 0.
const DefaultSubBuffer = 256

// Subscribe registers a delivery channel for a table's appends. The
// caller must consume Chan until it closes, then check Err; Close
// unsubscribes early.
func (h *Hub) Subscribe(table string, buf int) *Sub {
	if buf <= 0 {
		buf = DefaultSubBuffer
	}
	key := strings.ToLower(table)
	s := &Sub{hub: h, key: key, ch: make(chan Batch, buf)}
	h.mu.Lock()
	defer h.mu.Unlock()
	set, ok := h.subs[key]
	if !ok {
		set = make(map[*Sub]struct{})
		h.subs[key] = set
	}
	set[s] = struct{}{}
	return s
}

// Publish delivers b to every subscriber of b.Table. Subscribers that
// cannot accept the batch (full buffer) are dropped with ErrLagged.
func (h *Hub) Publish(b Batch) {
	key := strings.ToLower(b.Table)
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs[key] {
		select {
		case s.ch <- b:
		default:
			s.err = ErrLagged
			s.dropLocked()
		}
	}
}

// Subscribers returns the number of live subscriptions over every table:
// what a service reports as held by statements still in flight.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, set := range h.subs {
		n += len(set)
	}
	return n
}

// Sub is one subscription. Receive from Chan; a closed channel means the
// subscription ended — Err distinguishes a deliberate Close (nil) from a
// buffer overflow (ErrLagged).
type Sub struct {
	hub    *Hub
	key    string
	ch     chan Batch
	closed bool
	err    error
}

// Chan returns the delivery channel.
func (s *Sub) Chan() <-chan Batch { return s.ch }

// Err returns why the channel closed; nil until it has.
func (s *Sub) Err() error {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.err
}

// Close unsubscribes and closes the delivery channel. Idempotent.
func (s *Sub) Close() {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	s.dropLocked()
}

// dropLocked unregisters and closes the channel; callers hold hub.mu,
// which also serializes against Publish's sends.
func (s *Sub) dropLocked() {
	if s.closed {
		return
	}
	s.closed = true
	set := s.hub.subs[s.key]
	delete(set, s)
	if len(set) == 0 {
		delete(s.hub.subs, s.key)
	}
	close(s.ch)
}
