package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Live is one in-flight query's progress counters, sampled from the hot
// paths by atomic adds — the executor bumps rows/blocks per chain step,
// the stream writers bump wire bytes per flush, shuffle stages bump
// delivered rows per partition send. All methods are nil-receiver safe so
// paths without a registered query (the engine backend, tests driving
// internals directly) pay one nil check and no allocation.
type Live struct {
	RowsScanned   atomic.Int64
	RowsEmitted   atomic.Int64
	BlocksRead    atomic.Int64
	BlocksWritten atomic.Int64
	ShuffleRows   atomic.Int64
	WireBytes     atomic.Int64
	MemPeak       atomic.Int64

	phase atomic.Pointer[string]
}

// AddRowsScanned counts rows processed by executor chain steps.
func (l *Live) AddRowsScanned(n int64) {
	if l != nil && n != 0 {
		l.RowsScanned.Add(n)
	}
}

// AddRowsEmitted counts rows handed to the query's consumer.
func (l *Live) AddRowsEmitted(n int64) {
	if l != nil && n != 0 {
		l.RowsEmitted.Add(n)
	}
}

// AddBlocks counts spill blocks read and written by reorders.
func (l *Live) AddBlocks(read, written int64) {
	if l == nil {
		return
	}
	if read != 0 {
		l.BlocksRead.Add(read)
	}
	if written != 0 {
		l.BlocksWritten.Add(written)
	}
}

// AddShuffleRows counts rows delivered node-to-node in shuffle rounds.
func (l *Live) AddShuffleRows(n int64) {
	if l != nil && n != 0 {
		l.ShuffleRows.Add(n)
	}
}

// AddWireBytes counts bytes written to the query's response stream.
func (l *Live) AddWireBytes(n int64) {
	if l != nil && n != 0 {
		l.WireBytes.Add(n)
	}
}

// RaiseMemPeak lifts the peak in-flight memory-unit high-water mark (one
// unit = one held admission slot's chain-memory claim).
func (l *Live) RaiseMemPeak(units int64) {
	if l == nil {
		return
	}
	for {
		cur := l.MemPeak.Load()
		if units <= cur || l.MemPeak.CompareAndSwap(cur, units) {
			return
		}
	}
}

// SetPhase records the query's current lifecycle phase ("queued",
// "planning", "segment 2 of 3", "shuffle round 1", "draining", ...).
func (l *Live) SetPhase(phase string) {
	if l != nil {
		l.phase.Store(&phase)
	}
}

// Phase returns the current lifecycle phase.
func (l *Live) Phase() string {
	if l == nil {
		return ""
	}
	if p := l.phase.Load(); p != nil {
		return *p
	}
	return ""
}

// liveKey keys a *Live in a context, riding alongside the trace ID so the
// executor and stream writers can account to the owning query without any
// signature changes on the hot paths.
type liveKey struct{}

// WithLive returns ctx carrying the query's live counters.
func WithLive(ctx context.Context, l *Live) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, liveKey{}, l)
}

// LiveFromContext returns the live counters carried by ctx, or nil.
func LiveFromContext(ctx context.Context) *Live {
	l, _ := ctx.Value(liveKey{}).(*Live)
	return l
}

// clientKey keys the requesting client's address in a context; HTTP front
// ends set it from RemoteAddr before entering the serving path.
type clientKey struct{}

// WithClient returns ctx carrying the requesting client's address.
func WithClient(ctx context.Context, addr string) context.Context {
	if addr == "" {
		return ctx
	}
	return context.WithValue(ctx, clientKey{}, addr)
}

// ClientFromContext returns the client address carried by ctx, or "".
func ClientFromContext(ctx context.Context) string {
	addr, _ := ctx.Value(clientKey{}).(string)
	return addr
}

// QueryEntry is one registered in-flight query: identity, the stored
// cancel that the kill switch fires, and the live counters.
type QueryEntry struct {
	id      string
	sql     string
	backend string
	client  string
	start   time.Time
	cancel  context.CancelFunc
	killed  atomic.Bool
	live    Live
}

// Live returns the entry's counters (nil-safe; a nil entry yields a nil
// Live, whose methods are no-ops).
func (e *QueryEntry) Live() *Live {
	if e == nil {
		return nil
	}
	return &e.live
}

// Kill fires the stored cancel and marks the entry killed, so the owning
// finish path classifies the query as aborted rather than failed.
func (e *QueryEntry) Kill() {
	if e == nil {
		return
	}
	e.killed.Store(true)
	if e.cancel != nil {
		e.cancel()
	}
}

// Killed reports whether the kill switch fired for this entry.
func (e *QueryEntry) Killed() bool {
	return e != nil && e.killed.Load()
}

// Info snapshots the entry for the /debug/queries JSON surface.
func (e *QueryEntry) Info() QueryInfo {
	info := QueryInfo{
		ID:            e.id,
		SQL:           e.sql,
		Backend:       e.backend,
		ClientAddr:    e.client,
		Start:         e.start,
		ElapsedMillis: Millis(time.Since(e.start)),
		Phase:         e.live.Phase(),
		Killed:        e.killed.Load(),
		RowsScanned:   e.live.RowsScanned.Load(),
		RowsEmitted:   e.live.RowsEmitted.Load(),
		BlocksRead:    e.live.BlocksRead.Load(),
		BlocksWritten: e.live.BlocksWritten.Load(),
		ShuffleRows:   e.live.ShuffleRows.Load(),
		WireBytes:     e.live.WireBytes.Load(),
		MemPeakUnits:  e.live.MemPeak.Load(),
	}
	return info
}

// QueryInfo is the JSON shape of one in-flight query, the GET
// /debug/queries element. A coordinator's entries carry the shard nodes'
// matching entries under Nodes.
type QueryInfo struct {
	ID            string    `json:"id"`
	SQL           string    `json:"sql"`
	Backend       string    `json:"backend"`
	Phase         string    `json:"phase,omitempty"`
	ClientAddr    string    `json:"client_addr,omitempty"`
	Start         time.Time `json:"start"`
	ElapsedMillis float64   `json:"elapsed_ms"`
	Killed        bool      `json:"killed,omitempty"`
	RowsScanned   int64     `json:"rows_scanned"`
	RowsEmitted   int64     `json:"rows_emitted"`
	BlocksRead    int64     `json:"blocks_read"`
	BlocksWritten int64     `json:"blocks_written"`
	ShuffleRows   int64     `json:"shuffle_rows"`
	WireBytes     int64     `json:"wire_bytes"`
	MemPeakUnits  int64     `json:"mem_peak_units"`

	Nodes []QueryInfo `json:"nodes,omitempty"`
}

// Registry tracks a process's in-flight queries by trace ID: the
// pg_stat_activity half of the observability plane. Register on
// admission, Remove when the cursor finishes, Kill from the DELETE
// /debug/queries/{id} surface. A nil Registry is inert.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*QueryEntry
	order   []*QueryEntry // insertion order; Snapshot reverses it
}

// NewRegistry builds an empty in-flight query registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*QueryEntry)}
}

// Register records a query entering the serving path and returns its
// entry. An empty id gets a minted one (nothing upstream to join). When
// the same trace ID re-registers (sequential stages of one distributed
// query on the same node), the newest entry owns the ID.
func (r *Registry) Register(id, sql, backend, client string, cancel context.CancelFunc) *QueryEntry {
	if r == nil {
		return nil
	}
	if id == "" {
		id = NewID()
	}
	e := &QueryEntry{
		id: id, sql: sql, backend: backend, client: client,
		start: time.Now(), cancel: cancel,
	}
	r.mu.Lock()
	r.entries[id] = e
	r.order = append(r.order, e)
	r.mu.Unlock()
	return e
}

// Remove drops the entry from the registry. Pointer-compared, so a stale
// deregistration cannot evict a newer entry that took over the ID.
func (r *Registry) Remove(e *QueryEntry) {
	if r == nil || e == nil {
		return
	}
	r.mu.Lock()
	if cur, ok := r.entries[e.id]; ok && cur == e {
		delete(r.entries, e.id)
	}
	for i, oe := range r.order {
		if oe == e {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

// Get returns the live entry with the given trace ID, or nil.
func (r *Registry) Get(id string) *QueryEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[id]
}

// Kill cancels the in-flight query with the given trace ID, reporting
// whether the registry held it.
func (r *Registry) Kill(id string) bool {
	e := r.Get(id)
	if e == nil {
		return false
	}
	e.Kill()
	return true
}

// Len reports how many queries are in flight.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Snapshot returns every in-flight query, newest first.
func (r *Registry) Snapshot() []QueryInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*QueryEntry, len(r.order))
	copy(entries, r.order)
	r.mu.Unlock()
	out := make([]QueryInfo, 0, len(entries))
	for i := len(entries) - 1; i >= 0; i-- {
		out = append(out, entries[i].Info())
	}
	return out
}
