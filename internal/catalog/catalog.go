// Package catalog registers tables and computes the column statistics the
// cost models and the Hashed Sort consume: distinct-value counts D(A).
//
// The catalog tracks two generations with different blast radii.
// The *schema generation* (Catalog.Generation) advances only on Register /
// RegisterStub — a table was created or replaced wholesale, so prepared
// plans built against the old entry are invalid. The per-entry *data
// generation* (Entry.DataGen) advances on every Append — the schema, and
// therefore every prepared plan, is still valid, but any cached *result*
// (materialized query output, distinct counts) may be stale.
// A cached plan stays valid while its entry is the catalog's entry for its
// table, so it survives appends and other tables' registrations; cached
// results must also match the data generation.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/storage"
)

// ErrUnknownTable classifies Lookup failures; serving layers map it to a
// not-found response. Test with errors.Is.
var ErrUnknownTable = errors.New("catalog: unknown table")

// Catalog maps table names to entries. Names are case-insensitive, like
// the SQL dialect's column identifiers — "WEB_SALES" and "web_sales" are
// the same table, so a query's outcome cannot depend on how a client
// spells the name. All methods are safe for concurrent use; Register
// replaces the table's entry, invalidating every plan built on the old one,
// and bumps the schema generation, the cue for caches to sweep. Append does
// NOT bump it — appends preserve the schema.
type Catalog struct {
	mu         sync.RWMutex
	tables     map[string]*Entry // keyed by folded name
	generation uint64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Entry)}
}

// Register adds (or replaces) a table and advances the schema generation.
// Names differing only in case replace each other.
func (c *Catalog) Register(name string, t *storage.Table) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.generation++
	e := newEntry(name, c.generation, nil, t)
	c.tables[strings.ToLower(name)] = e
	return e
}

// newEntry builds an entry over t and binds its distinct-count estimator
// once, for every CostParams and execution config to share.
func newEntry(name string, gen uint64, stats *TableStats, t *storage.Table) *Entry {
	e := &Entry{Name: name, gen: gen, stats: stats, distinct: make(map[attrs.Set]int64)}
	e.estimator = e.Distinct
	e.data.Store(&tableData{t: t, gen: 1})
	return e
}

// TableStats carries externally computed statistics for a stub
// registration: a coordinator that sharded a table away keeps only the
// schema plus these numbers, and plans against them exactly as it would
// against locally scanned rows.
type TableStats struct {
	// Rows is the total row count across all shards.
	Rows int64
	// Bytes is the total serialized size (the B(R) of the cost models).
	Bytes int64
	// Distinct estimates D(set) for the union of the shards; nil disables
	// distinct statistics (cost models fall back to their defaults).
	// Implementations may consult remote nodes — results are cached per
	// set inside the entry, so each set is resolved at most once.
	Distinct func(set attrs.Set) int64
}

// RegisterStub adds (or replaces) a schema-only entry: a table with no
// rows whose statistics come from stats instead of local scans. It is the
// coordinator side of sharded registration — planning needs the schema,
// B(R), |R| and D(·), none of which require the rows to be resident. Like
// Register it advances the schema generation.
func (c *Catalog) RegisterStub(name string, schema *storage.Schema, stats TableStats) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.generation++
	e := newEntry(name, c.generation, &stats, storage.NewTable(schema))
	c.tables[strings.ToLower(name)] = e
	return e
}

// Generation returns the current schema generation: the number of Register
// and RegisterStub calls so far. A cached plan is valid only while the
// generation it was built under is current. Appends do not advance it.
func (c *Catalog) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.generation
}

// Lookup finds a table entry, case-insensitively. The error wraps
// ErrUnknownTable when the name is not registered.
func (c *Catalog) Lookup(name string) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownTable, name)
	}
	return e, nil
}

// Append validates rows against the named table's schema and appends them,
// advancing the table's data generation (but not the schema generation).
// It returns the global row index of the first appended row and the new
// data generation. atLeast lower-bounds the resulting generation — a
// cluster coordinator assigns one watermark per logical append and ships
// it to every owning node so all replicas converge on the same generation;
// pass 0 for plain local appends.
//
// Integer values are coerced to floats against FLOAT columns (the SQL
// layer produces untyped integer literals); any other kind mismatch is an
// error and the table is unchanged. Appending to a stub entry updates its
// injected statistics (row count, byte size) without storing rows — the
// coordinator's planner keeps seeing cluster-accurate cardinalities.
func (c *Catalog) Append(name string, rows []storage.Tuple, atLeast uint64) (startRid int64, gen uint64, err error) {
	e, err := c.Lookup(name)
	if err != nil {
		return 0, 0, err
	}
	return e.Append(rows, atLeast)
}

// Names lists registered tables (as-registered spelling) in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for _, e := range c.tables {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// tableData is an entry's immutable data snapshot: the row storage plus
// the data generation it corresponds to. Appends swap in a new snapshot
// (copy-on-write over the row slice); readers that need a consistent
// (rows, generation) pair take one atomic load via Entry.Snapshot.
type tableData struct {
	t   *storage.Table
	gen uint64
}

// Entry is one registered table plus lazily computed statistics. Stub
// entries (RegisterStub) carry a rowless table and answer the statistics
// accessors from injected TableStats instead of scanning. The table
// pointer is accessed through Table/Snapshot — appends replace it
// atomically, and any loaded *storage.Table is immutable forever (its row
// slice is never appended to in place), so readers never need a lock.
type Entry struct {
	Name string
	gen  uint64 // the schema generation this entry's registration produced

	data atomic.Pointer[tableData]

	stats *TableStats // non-nil for stub entries

	// estimator is Distinct as a function value, bound once: a method
	// value made per call would allocate.
	estimator func(attrs.Set) int64

	mu       sync.Mutex
	distinct map[attrs.Set]int64
	byteSize int64
}

// Table returns the current immutable data snapshot. Callers holding the
// returned pointer see a frozen prefix of the table: concurrent appends
// produce new snapshots and never mutate this one.
func (e *Entry) Table() *storage.Table {
	return e.data.Load().t
}

// Generation returns the schema generation this entry's registration
// produced: unique among one catalog's entries, so it names the entry in
// cache keys.
func (e *Entry) Generation() uint64 { return e.gen }

// DataGen returns the entry's data generation: 1 at registration,
// advanced by every Append. Result caches key on it.
func (e *Entry) DataGen() uint64 {
	return e.data.Load().gen
}

// Snapshot returns the current table and its data generation as one
// consistent pair.
func (e *Entry) Snapshot() (*storage.Table, uint64) {
	d := e.data.Load()
	return d.t, d.gen
}

// Append validates and appends rows, advancing the data generation to
// max(current+1, atLeast). See Catalog.Append for semantics.
func (e *Entry) Append(rows []storage.Tuple, atLeast uint64) (startRid int64, gen uint64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.data.Load()
	schema := old.t.Schema
	coerced, addedBytes, err := coerceRows(schema, rows)
	if err != nil {
		return 0, 0, err
	}
	gen = old.gen + 1
	if atLeast > gen {
		gen = atLeast
	}
	if e.stats != nil {
		// Stub: the rows live on the shard nodes; keep the injected
		// statistics cluster-accurate without storing anything locally.
		startRid = e.stats.Rows
		e.stats.Rows += int64(len(rows))
		e.stats.Bytes += int64(addedBytes)
		e.data.Store(&tableData{t: old.t, gen: gen})
	} else {
		n := len(old.t.Rows)
		startRid = int64(n)
		// Full-capacity slice: a concurrent reader of the old snapshot
		// must never observe our rows through shared backing storage.
		newRows := append(old.t.Rows[:n:n], coerced...)
		e.data.Store(&tableData{
			t:   &storage.Table{Schema: schema, Rows: newRows},
			gen: gen,
		})
	}
	// Data-dependent statistics are stale now.
	e.distinct = make(map[attrs.Set]int64)
	if e.byteSize != 0 {
		e.byteSize += int64(addedBytes)
	}
	return startRid, gen, nil
}

// coerceRows validates rows against schema, coercing integer values to
// floats for FLOAT columns. It returns the validated rows (copied only
// when coercion changed a value) and their total encoded size.
func coerceRows(schema *storage.Schema, rows []storage.Tuple) ([]storage.Tuple, int, error) {
	out := make([]storage.Tuple, len(rows))
	bytes := 0
	for i, row := range rows {
		if len(row) != schema.Len() {
			return nil, 0, fmt.Errorf("catalog: append row %d: arity %d != schema arity %d", i, len(row), schema.Len())
		}
		r, copied := row, false
		for j, v := range row {
			want := schema.Columns[j].Type
			switch v.Kind() {
			case storage.KindNull:
				// NULL fits every column.
			case storage.KindInt:
				if want == storage.TypeFloat {
					if !copied {
						r, copied = row.Clone(), true
					}
					r[j] = storage.Float(float64(v.Int64()))
				} else if want != storage.TypeInt {
					return nil, 0, typeErr(schema, i, j, v)
				}
			case storage.KindFloat:
				if want != storage.TypeFloat {
					return nil, 0, typeErr(schema, i, j, v)
				}
			case storage.KindString:
				if want != storage.TypeString {
					return nil, 0, typeErr(schema, i, j, v)
				}
			}
		}
		out[i] = r
		bytes += storage.EncodedSize(r)
	}
	return out, bytes, nil
}

func typeErr(schema *storage.Schema, row, col int, v storage.Value) error {
	c := schema.Columns[col]
	return fmt.Errorf("catalog: append row %d: column %q is %s, got %s", row, c.Name, c.Type, v.Kind())
}

// Stub reports whether the entry is schema-only (registered through
// RegisterStub): its Table holds no rows and its statistics are injected.
func (e *Entry) Stub() bool { return e.stats != nil }

// Rows returns the row count.
func (e *Entry) Rows() int64 {
	if e.stats != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.stats.Rows
	}
	return int64(e.Table().Len())
}

// ByteSize returns (and caches) the serialized size.
func (e *Entry) ByteSize() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stats != nil {
		return e.stats.Bytes
	}
	if e.byteSize == 0 {
		e.byteSize = int64(e.Table().ByteSize())
	}
	return e.byteSize
}

// Blocks returns B(R) for a block size.
func (e *Entry) Blocks(blockSize int) int64 {
	if blockSize <= 0 {
		blockSize = 8192
	}
	return (e.ByteSize() + int64(blockSize) - 1) / int64(blockSize)
}

// Distinct returns the distinct count of the attribute set, cached: exact
// (a local scan) for regular entries, the injected estimator for stubs
// (0 when the stub carries no estimator). The lock is released during the
// computation — a scan or a potentially remote estimate must not block
// the other statistics accessors. A count computed over a snapshot that
// an append has since superseded is returned but not cached.
func (e *Entry) Distinct(set attrs.Set) int64 {
	t, gen := e.Snapshot()
	e.mu.Lock()
	if d, ok := e.distinct[set]; ok {
		e.mu.Unlock()
		return d
	}
	e.mu.Unlock()
	var d int64
	if e.stats != nil {
		if e.stats.Distinct != nil {
			d = e.stats.Distinct(set)
		}
	} else {
		d = int64(t.DistinctCount(set))
	}
	e.mu.Lock()
	if e.DataGen() == gen {
		e.distinct[set] = d
	}
	e.mu.Unlock()
	return d
}

// CostParams builds the cost-model inputs for this table.
func (e *Entry) CostParams(memBytes, blockSize int) core.CostParams {
	if blockSize <= 0 {
		blockSize = 8192
	}
	return core.CostParams{
		TableBlocks: e.Blocks(blockSize),
		TableTuples: e.Rows(),
		MemBlocks:   int64(memBytes) / int64(blockSize),
		BlockSize:   blockSize,
		Distinct:    e.estimator,
	}
}

// Estimator returns Distinct as the function value planning and execution
// take (core.CostParams.Distinct, exec.Config.Distinct), bound once at
// registration so that handing it on allocates nothing.
func (e *Entry) Estimator() func(attrs.Set) int64 { return e.estimator }
