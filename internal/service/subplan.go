package service

import (
	"container/list"
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/sql"
)

// The shared-subplan cache generalizes the prepared-statement cache from
// "share the planning" to "share the execution": two statements whose
// expensive half — WHERE filtering plus the chain's leading heavy reorder
// (the scan+reorder subplan of internal/sql/subplan.go) — has the same
// identity run that half once and evaluate their private derivation
// suffixes over one materialized segment. Identity has two levels:
//
//   - the *group*: (schema generation, data generation, lowercased table,
//     canonical WHERE) — statements in one group read exactly the same
//     rows. Both generations are part of the key, so re-registering a
//     table (schema gen) or appending rows (data gen) silently retires
//     every segment built on the old data: a query arriving after an
//     append keys to the new generation, misses, and re-scans.
//
//   - the *node*: the canonical form of the leading reorder — the frame
//     lattice position (core.LatticeNode), or the coordinator-shipped
//     subplan fingerprint when a scatter request carries one, so every
//     request of one distributed statement collides by construction.
//
// An exact (group, node) match is direct reuse. Within a group, a miss
// also scans for a *finer* cached segment whose stream properties match
// all of the statement's window functions (Props.MatchesAll — Definition
// 2 applied at the cache boundary): the frame-lattice hit, where a
// dashboard's coarse-grain queries ride the finest query's scan.
//
// Concurrency is singleflight: the first query to want a segment becomes
// the leader and executes the scan; colliding queries attach to the
// in-flight entry and wait on its done channel (honoring their contexts).
// Every participant holds its own admission slot — the leader acquires
// its slot before entering the cache, so a full governor can never
// deadlock the flight — but the scan's I/O is charged once, to the
// leader (sql.Input.ChargeScan); attachers report suffix-only metrics. A leader error removes the entry
// and its attachers fall back to private execution (counted as
// fallbacks), so a poisoned scan is never served.
type subplanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*subplanEntry
	order   *list.List // front = most recently used; values are *subplanEntry

	hits, misses, attaches, evictions, invalidations, fallbacks uint64
}

// Shared-scan dispositions, reported through sql.Result.SharedScan, the
// shared_scan trace attribute and the stream trailer.
const (
	dispMiss   = "miss"
	dispHit    = "hit"
	dispAttach = "attach"
)

// subplanEntry is one cached (or in-flight) scan+reorder execution. done
// closes when the leader completes; seg/err are valid after that. props is
// known from planning time — before the scan finishes — so frame-lattice
// matching works against in-flight entries too.
type subplanEntry struct {
	key       string
	table     string
	schemaGen uint64
	dataGen   uint64
	props     core.Props

	done chan struct{}
	seg  *sql.SharedSegment
	err  error
	el   *list.Element
}

// wait blocks until the entry's leader completes or ctx is done.
func (e *subplanEntry) wait(ctx context.Context) (*sql.SharedSegment, error) {
	select {
	case <-e.done:
		return e.seg, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func newSubplanCache(capacity int) *subplanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &subplanCache{
		cap:     capacity,
		entries: make(map[string]*subplanEntry, capacity),
		order:   list.New(),
	}
}

// acquire resolves prep's subplan through the cache: an exact or lattice
// match returns the existing entry with disposition "hit" (completed) or
// "attach" (in-flight); otherwise a fresh in-flight entry is created and
// the caller is the leader ("miss") — it must execute the scan and call
// complete exactly once. shippedFP is the coordinator's subplan
// fingerprint when the request carried one ("" otherwise); schemaGen is
// the engine's catalog generation.
func (c *subplanCache) acquire(prep *sql.Prepared, shippedFP string, schemaGen uint64) (*subplanEntry, string) {
	scanKey := prep.SubplanScanKey()
	table := scanKey
	if i := strings.IndexByte(scanKey, '|'); i >= 0 {
		table = scanKey[:i]
	}
	dataGen := prep.DataGeneration()
	group := fmt.Sprintf("g%d|d%d|%s", schemaGen, dataGen, scanKey)
	node := prep.SubplanNode()
	if shippedFP != "" {
		node = shippedFP
	}
	key := group + "|" + node
	wfs := prep.WFs()

	c.mu.Lock()
	defer c.mu.Unlock()

	// Sweep superseded segments for this table: entries keyed under an
	// older generation can never match again, and each pins a materialized
	// table — they must not wait for LRU pressure in a memory-budgeted
	// server.
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*subplanEntry)
		if ent.table == table && (ent.schemaGen != schemaGen || ent.dataGen != dataGen) {
			c.removeLocked(ent)
			c.invalidations++
		}
	}

	if ent, ok := c.entries[key]; ok {
		return ent, c.useLocked(ent)
	}
	// Frame-lattice scan: a finer segment in the same group whose stream
	// properties match every window function of this statement serves it
	// scan-free.
	for el := c.order.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*subplanEntry)
		if strings.HasPrefix(ent.key, group+"|") && ent.props.MatchesAll(wfs) {
			return ent, c.useLocked(ent)
		}
	}

	ent := &subplanEntry{
		key: key, table: table, schemaGen: schemaGen, dataGen: dataGen,
		props: prep.SubplanProps(), done: make(chan struct{}),
	}
	ent.el = c.order.PushFront(ent)
	c.entries[key] = ent
	c.misses++
	if c.order.Len() > c.cap {
		back := c.order.Back().Value.(*subplanEntry)
		c.removeLocked(back)
		c.evictions++
	}
	return ent, dispMiss
}

// useLocked classifies reuse of an existing entry — "hit" when completed,
// "attach" while the leader's scan is in flight — and bumps its recency.
func (c *subplanCache) useLocked(ent *subplanEntry) string {
	if ent.el != nil {
		c.order.MoveToFront(ent.el)
	}
	select {
	case <-ent.done:
		c.hits++
		return dispHit
	default:
		c.attaches++
		return dispAttach
	}
}

// removeLocked unlinks an entry from the map and the LRU list. Attachers
// already holding the entry are unaffected: removal only stops new
// lookups from finding it; the done channel and segment stay valid.
func (c *subplanCache) removeLocked(ent *subplanEntry) {
	if cur, ok := c.entries[ent.key]; ok && cur == ent {
		delete(c.entries, ent.key)
	}
	if ent.el != nil {
		c.order.Remove(ent.el)
		ent.el = nil
	}
}

// complete publishes the leader's scan outcome and wakes every attacher.
// A failed scan is removed so the error is never served to later queries
// — each attacher sees the error once and falls back to private
// execution.
func (c *subplanCache) complete(ent *subplanEntry, seg *sql.SharedSegment, err error) {
	c.mu.Lock()
	ent.seg, ent.err = seg, err
	if err != nil {
		c.removeLocked(ent)
	}
	c.mu.Unlock()
	close(ent.done)
}

// fallback counts an attacher that abandoned a failed flight and executed
// privately.
func (c *subplanCache) fallback() {
	c.mu.Lock()
	c.fallbacks++
	c.mu.Unlock()
}

// SubplanStats is the shared-subplan cache counter snapshot exposed
// through Service.Stats and /metrics.
type SubplanStats struct {
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Hits are lookups served from a completed shared segment; Attaches
	// joined an in-flight scan; Misses led one. Hits+Attaches over all
	// three is the fraction of shareable executions that skipped a scan.
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Attaches uint64 `json:"attaches"`
	// Invalidations are segments retired by a schema or data generation
	// change; Evictions by LRU pressure; Fallbacks are attachers whose
	// leader failed and who re-executed privately.
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	Fallbacks     uint64 `json:"fallbacks"`
}

// SharedRate returns (hits+attaches) / (hits+attaches+misses): the
// fraction of shareable executions that reused another query's scan. 0
// when no lookups happened.
func (s SubplanStats) SharedRate() float64 {
	total := s.Hits + s.Attaches + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Attaches) / float64(total)
}

func (c *subplanCache) stats() SubplanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SubplanStats{
		Size:          c.order.Len(),
		Capacity:      c.cap,
		Hits:          c.hits,
		Misses:        c.misses,
		Attaches:      c.attaches,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Fallbacks:     c.fallbacks,
	}
}

// sharedSegment resolves prep's scan+reorder subplan through the shared
// cache. It returns (nil, "", nil) when the execution should run
// privately: sharing disabled, statement not shareable, or this query
// attached to a flight whose leader failed (the fallback). A non-nil
// segment comes with the disposition the caller stamps on the result;
// disposition "miss" means this query led the scan and must charge it.
func (s *Service) sharedSegment(ctx context.Context, prep *sql.Prepared, shippedFP string) (*sql.SharedSegment, string, error) {
	if s.subplans == nil || !prep.Shareable() {
		return nil, "", nil
	}
	ent, disp := s.subplans.acquire(prep, shippedFP, s.eng.Generation())
	if disp == dispMiss {
		seg, err := prep.RunSubplan(ctx)
		s.subplans.complete(ent, seg, err)
		return seg, disp, err
	}
	seg, err := ent.wait(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		s.subplans.fallback()
		return nil, "", nil
	}
	return seg, disp, nil
}

// openStream opens prep's cursor behind stream(): over the shared segment
// when the subplan cache yields one, privately otherwise. The disposition
// is stamped on the cursor's meta so it reaches the trace, the trailer and
// EXPLAIN ANALYZE.
func (s *Service) openStream(ctx context.Context, prep *sql.Prepared, shippedFP string, shardLocal bool) (execCursor, error) {
	seg, disp, err := s.sharedSegment(ctx, prep, shippedFP)
	if err != nil {
		return nil, err
	}
	cur, err := prep.Open(ctx, sql.Input{Shared: seg, ChargeScan: disp == dispMiss}, shardLocal)
	if err != nil {
		return nil, err
	}
	cur.Meta().SharedScan = disp
	return cur, nil
}
