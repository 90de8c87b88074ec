// Package trace is the per-query distributed tracing spine: a query gets
// one trace ID at the front door (or carries one in on the wire), every
// layer it crosses — admission, plan cache, chain execution, shuffle
// rounds, node drains — records a span with a duration and a bag of
// attributes, and the coordinator assembles the subtrees that come back
// in stream trailers into one tree per statement.
//
// The model is deliberately small: a Span is a name, a duration in
// milliseconds, string attributes and children. Spans are built from
// measurements already taken (the executor and service have always timed
// these phases), not from live start/stop clocks, so recording a span
// costs one struct append on a path that already holds the numbers.
// Trees serialize as JSON through one hand-written codec (codec.go): a
// stream trailer appends a span tree straight into its frame and decodes
// it without reflection, and /debug/trace and the slow-query log reach the
// same code through MarshalJSON, so the shapes cannot drift apart. Trees
// also render as an indented text tree for EXPLAIN ANALYZE, windsql and
// the slow-query log's human side.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HeaderTraceID is the HTTP header that carries a query's trace ID across
// /query, /shard/query and /shard/shuffle/run hops. Absent, the receiving
// layer mints one; present, it joins the caller's trace.
const HeaderTraceID = "X-Windowdb-Trace-Id"

// Span is one timed phase of a query: a name, a duration, optional
// string attributes (cardinalities, reorder kinds, cache dispositions)
// and child phases. The JSON shape is the wire shape — nodes ship their
// subtree back in the stream trailer and the coordinator grafts it under
// its own spans unchanged.
type Span struct {
	Name           string            `json:"name"`
	DurationMillis float64           `json:"duration_ms"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Children       []*Span           `json:"children,omitempty"`
}

// New builds a span with the given name and measured duration.
func New(name string, d time.Duration) *Span {
	return &Span{Name: name, DurationMillis: Millis(d)}
}

// SetAttr records a key/value attribute, allocating the map lazily.
func (s *Span) SetAttr(key, value string) *Span {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[key] = value
	return s
}

// SetInt records an integer attribute. strconv, not fmt: every executed
// statement's step spans carry a handful, and fmt boxes each value.
func (s *Span) SetInt(key string, v int64) *Span {
	return s.SetAttr(key, strconv.FormatInt(v, 10))
}

// Add appends a child span and returns it for chaining.
func (s *Span) Add(child *Span) *Span {
	if child != nil {
		s.Children = append(s.Children, child)
	}
	return s
}

// Millis converts a duration to the float milliseconds spans carry.
func Millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// Trace is one recorded query: the ID, the statement, when it started,
// how long it took end to end, the terminal error if any, and the
// assembled span tree.
type Trace struct {
	ID             string    `json:"id"`
	SQL            string    `json:"sql,omitempty"`
	Start          time.Time `json:"start"`
	DurationMillis float64   `json:"duration_ms"`
	Error          string    `json:"error,omitempty"`
	Root           *Span     `json:"root,omitempty"`
}

// NewID mints a 16-hex-digit trace ID. It falls back to a counter-free
// constant-entropy read; crypto/rand never fails on supported platforms.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ctxKey keys the trace ID in a context. Only the ID travels by context —
// spans are assembled from measurements after the fact, so nothing else
// needs ambient state.
type ctxKey struct{}

// NewContext returns ctx carrying the trace ID.
func NewContext(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// FromContext returns the trace ID carried by ctx, or "".
func FromContext(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// IDFromContext returns the context's trace ID, minting one when absent.
func IDFromContext(ctx context.Context) string {
	if id := FromContext(ctx); id != "" {
		return id
	}
	return NewID()
}

// Ring is a bounded buffer of recent traces with FIFO eviction, safe for
// concurrent recording and reading. It backs /debug/trace/{id}: the last
// N queries (successes and failures both — a failing node mid-shuffle is
// exactly what the buffer is for) stay inspectable without a collector.
type Ring struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	full bool
}

// NewRing builds a ring holding up to n traces (minimum 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]*Trace, n)}
}

// Add records a trace, evicting the oldest when full.
func (r *Ring) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// Get returns the trace with the given ID, or nil.
func (r *Ring) Get(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.buf {
		if t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

// Recent returns up to n traces, newest first.
func (r *Ring) Recent(n int) []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Trace
	size := len(r.buf)
	for i := 0; i < size && (n <= 0 || len(out) < n); i++ {
		idx := (r.next - 1 - i + 2*size) % size
		if t := r.buf[idx]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Len reports how many traces the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Cap reports the ring's capacity — the bound for /debug/trace ?limit=.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Render flattens a span tree into indented text lines:
//
//	execute 41.2ms [chain=ws --HS--> wf1 -> wf2]
//	  step wf1 HS 30.1ms [rows=120000 spilled=64]
//
// Attributes print sorted for stable output.
func Render(root *Span) []string {
	var lines []string
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		if s == nil {
			return
		}
		var b strings.Builder
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.Name)
		fmt.Fprintf(&b, " %.3fms", s.DurationMillis)
		if len(s.Attrs) > 0 {
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteString(" [")
			for i, k := range keys {
				if i > 0 {
					b.WriteString(" ")
				}
				fmt.Fprintf(&b, "%s=%s", k, s.Attrs[k])
			}
			b.WriteString("]")
		}
		lines = append(lines, b.String())
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return lines
}

// SlowLogEntry is one line of the structured slow-query log: the trace
// with a marker field so `grep slow_query` finds it in mixed stderr.
type SlowLogEntry struct {
	Kind           string  `json:"kind"` // always "slow_query"
	ID             string  `json:"id"`
	SQL            string  `json:"sql,omitempty"`
	DurationMillis float64 `json:"duration_ms"`
	ThresholdMs    float64 `json:"threshold_ms"`
	Error          string  `json:"error,omitempty"`
	// Suppressed counts lines the storm guard dropped since the previous
	// emitted line; carried on the first line that gets through.
	Suppressed int64 `json:"suppressed,omitempty"`
	Root       *Span `json:"root,omitempty"`
}

// DefaultSlowLogRate is the storm guard's default emission cap in lines
// per second.
const DefaultSlowLogRate = 10

// SlowLogger emits one JSON line per query at or over the threshold,
// rate-capped so one overloaded process cannot melt stderr: past
// maxPerSec lines in a one-second window further lines are counted, and
// the count flushes as "suppressed" on the next emitted line. A nil
// SlowLogger, a zero threshold or a nil writer disables it.
type SlowLogger struct {
	mu          sync.Mutex
	w           io.Writer
	threshold   time.Duration
	maxPerSec   int
	windowStart time.Time
	windowCount int
	suppressed  int64
}

// NewSlowLoggerRate builds a slow-query logger capped at maxPerSec lines
// per second (0 means DefaultSlowLogRate, negative means uncapped); nil
// when disabled.
func NewSlowLoggerRate(w io.Writer, threshold time.Duration, maxPerSec int) *SlowLogger {
	if w == nil || threshold <= 0 {
		return nil
	}
	if maxPerSec == 0 {
		maxPerSec = DefaultSlowLogRate
	}
	return &SlowLogger{w: w, threshold: threshold, maxPerSec: maxPerSec}
}

// Observe logs the trace if its duration meets the threshold and the
// storm guard admits the line.
func (l *SlowLogger) Observe(t *Trace) {
	if l == nil || t == nil || time.Duration(t.DurationMillis*float64(time.Millisecond)) < l.threshold {
		return
	}
	entry := SlowLogEntry{
		Kind: "slow_query", ID: t.ID, SQL: t.SQL,
		DurationMillis: t.DurationMillis,
		ThresholdMs:    Millis(l.threshold),
		Error:          t.Error, Root: t.Root,
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.maxPerSec > 0 {
		now := time.Now()
		if now.Sub(l.windowStart) >= time.Second {
			l.windowStart = now
			l.windowCount = 0
		}
		if l.windowCount >= l.maxPerSec {
			l.suppressed++
			return
		}
		l.windowCount++
		entry.Suppressed = l.suppressed
		l.suppressed = 0
	}
	buf, err := json.Marshal(entry)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	_, _ = l.w.Write(buf)
}
