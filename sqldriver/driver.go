// Package sqldriver plugs this repository's engines into the standard Go
// database ecosystem: it registers a database/sql driver named "windowdb"
// whose connections delegate to any windowdb.Queryer backend.
//
// Two DSN forms:
//
//   - "http://host:port" (or https) — a remote windserve, single engine or
//     cluster coordinator, reached through service.Client's streaming
//     /query surface (binary frames); rows arrive incrementally as
//     database/sql scans them.
//   - any other string — the name of an in-process backend registered with
//     windowdb.RegisterDSN: an *windowdb.Engine, a *service.Service (plan
//     cache + admission control included), or a *shard.Cluster.
//
// Usage:
//
//	import (
//		"database/sql"
//
//		windowdb "repro"
//		_ "repro/sqldriver"
//	)
//
//	eng := windowdb.New(windowdb.Config{})
//	eng.Register("emptab", table)
//	windowdb.RegisterDSN("main", eng)
//
//	db, _ := sql.Open("windowdb", "main")
//	rows, _ := db.Query(`SELECT empnum, rank() OVER (ORDER BY salary DESC) AS r FROM emptab`)
//
// The engine speaks a window-query dialect with one write statement:
// `db.Exec("INSERT INTO t VALUES ...")` appends rows (RowsAffected is the
// appended count), and `db.Query("SUBSCRIBE <stmt>")` opens a live
// maintained cursor — database/sql's incremental Next/Scan loop blocks
// between delta batches; cancel the context to end it. Transactions and
// placeholder arguments are not supported.
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"strings"

	windowdb "repro"
	"repro/internal/service"
	"repro/internal/storage"
)

func init() {
	sql.Register("windowdb", &Driver{})
}

// Driver implements driver.Driver (and driver.DriverContext) over
// windowdb.Queryer backends.
type Driver struct{}

var (
	_ driver.Driver        = (*Driver)(nil)
	_ driver.DriverContext = (*Driver)(nil)
)

// Open implements driver.Driver.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	q, err := resolve(dsn)
	if err != nil {
		return nil, err
	}
	return &conn{q: q}, nil
}

// OpenConnector implements driver.DriverContext; the resolved backend is
// shared by every connection database/sql opens from it.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	q, err := resolve(dsn)
	if err != nil {
		return nil, err
	}
	return &connector{d: d, q: q}, nil
}

func resolve(dsn string) (windowdb.Queryer, error) {
	if strings.HasPrefix(dsn, "http://") || strings.HasPrefix(dsn, "https://") {
		return service.NewClient(dsn, nil), nil
	}
	if q, ok := windowdb.LookupDSN(dsn); ok {
		return q, nil
	}
	return nil, fmt.Errorf("sqldriver: unknown DSN %q: not an http(s) URL and not registered via windowdb.RegisterDSN", dsn)
}

type connector struct {
	d *Driver
	q windowdb.Queryer
}

func (c *connector) Connect(context.Context) (driver.Conn, error) { return &conn{q: c.q}, nil }
func (c *connector) Driver() driver.Driver                        { return c.d }

// conn is one database/sql connection: stateless, so any number can share
// a backend (the backends are themselves safe for concurrent use).
type conn struct {
	q windowdb.Queryer
}

var (
	_ driver.Conn           = (*conn)(nil)
	_ driver.QueryerContext = (*conn)(nil)
	_ driver.ExecerContext  = (*conn)(nil)
)

// ExecContext implements driver.ExecerContext for the one statement the
// engine can write: INSERT. The backend returns its one-row summary
// cursor [table, rows_appended, watermark]; Exec drains it into a
// driver.Result whose RowsAffected is the appended row count. Everything
// else stays read-only and must go through Query.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, errors.New("sqldriver: placeholder arguments are not supported")
	}
	if !windowdb.IsInsert(query) {
		return nil, errors.New("sqldriver: only INSERT can Exec; the query surface is read-only")
	}
	r, err := c.q.QueryContext(ctx, query)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var appended int64
	for r.Next() {
		appended = r.Row()[1].Int64()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return execResult(appended), nil
}

// execResult is the driver.Result of an INSERT: the appended row count.
type execResult int64

func (r execResult) LastInsertId() (int64, error) {
	return 0, errors.New("sqldriver: no insert IDs; row identity is positional (_rid)")
}
func (r execResult) RowsAffected() (int64, error) { return int64(r), nil }

// QueryContext implements driver.QueryerContext — the fast path that
// skips statement preparation.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, errors.New("sqldriver: placeholder arguments are not supported")
	}
	r, err := c.q.QueryContext(ctx, query)
	if err != nil {
		return nil, err
	}
	return &rows{r: r}, nil
}

// Prepare implements driver.Conn.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext.
func (c *conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	st, err := c.q.PrepareContext(ctx, query)
	if err != nil {
		return nil, err
	}
	return &stmt{st: st}, nil
}

// Close implements driver.Conn; connections hold no per-conn state.
func (c *conn) Close() error { return nil }

// Begin implements driver.Conn. The engine is read-only: no transactions.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, errors.New("sqldriver: transactions are not supported")
}

type stmt struct {
	st windowdb.Stmt
}

var (
	_ driver.Stmt             = (*stmt)(nil)
	_ driver.StmtQueryContext = (*stmt)(nil)
)

func (s *stmt) Close() error  { return s.st.Close() }
func (s *stmt) NumInput() int { return 0 }

func (s *stmt) Exec([]driver.Value) (driver.Result, error) {
	return nil, errors.New("sqldriver: the engine is read-only; use Query")
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, errors.New("sqldriver: placeholder arguments are not supported")
	}
	return s.QueryContext(context.Background(), nil)
}

func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, errors.New("sqldriver: placeholder arguments are not supported")
	}
	r, err := s.st.QueryContext(ctx)
	if err != nil {
		return nil, err
	}
	return &rows{r: r}, nil
}

// rows adapts the windowdb cursor to driver.Rows; database/sql's Scan
// conversions take over from driver.Value (int64, float64, string, nil).
type rows struct {
	r *windowdb.Rows
}

var _ driver.Rows = (*rows)(nil)

func (r *rows) Columns() []string { return r.r.Columns() }

func (r *rows) Close() error { return r.r.Close() }

func (r *rows) Next(dest []driver.Value) error {
	if !r.r.Next() {
		if err := r.r.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	row := r.r.Row()
	for i, v := range row {
		switch v.Kind() {
		case storage.KindNull:
			dest[i] = nil
		case storage.KindInt:
			dest[i] = v.Int64()
		case storage.KindFloat:
			dest[i] = v.Float64()
		default:
			dest[i] = v.Str()
		}
	}
	return nil
}
