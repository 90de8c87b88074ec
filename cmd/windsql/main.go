// Command windsql runs window-function SQL against generated datasets or
// CSV files, printing rows incrementally as the result cursor yields them,
// plus the window-function chain the optimizer produced and per-statement
// execution metrics (wall time and block I/O), so the shell doubles as a
// manual latency probe.
//
// Usage:
//
//	windsql -q "SELECT empnum, rank() OVER (ORDER BY salary DESC) FROM emptab"
//	windsql -scheme PSQL -rows 50000 -q "SELECT ... FROM web_sales"
//	windsql -csv data.csv -table t -q "SELECT ... FROM t"
//	windsql -format csv -q "SELECT ... FROM web_sales" > out.csv
//	windsql -server localhost:8080 -q "SELECT ... FROM web_sales"
//	windsql                            # shell: statements from stdin
//
// Local and remote modes speak the same windowdb.Queryer surface: local
// statements go through a one-slot query service over an embedded engine,
// remote ones through service.Client's streaming /query connection (binary
// frames) to a running windserve — single engine or cluster coordinator —
// so rows print as the server emits them, long before the result is
// complete. The latency line reports the served elapsed time, cache
// disposition and (against a coordinator) the scatter/shuffle/replica route.
//
// -format selects the output shape: "table" (padded columns; the first
// rows are buffered to size the columns, the rest stream), "csv"
// (streaming, header row first) or "json" (streaming, one object per
// line, column order preserved).
//
// Embedded tables: emptab (Example 1 of the paper), web_sales,
// web_sales_s, web_sales_g (generated; -rows controls size), plus any
// -csv/-table pair. Without -q, statements are read line by line from
// stdin (a trailing ';' is accepted); repeating a statement shows the
// prepared-plan cache at work — the second run skips parse+bind+plan.
//
// Ingestion and live results ride the same statement path: an
// `INSERT INTO t VALUES (...), (...)` statement appends rows (against a
// coordinator, routed to the owning shards) and prints the one-row
// summary [table, rows_appended, watermark]; `\subscribe <stmt>` opens a
// live maintained cursor that prints the initial result and then delta
// rows as appends land, one flushed CSV record (or -format json object)
// per row, until Ctrl-C returns to the shell.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"time"

	windowdb "repro"
	"repro/internal/cli"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

func main() {
	var (
		query    = flag.String("q", "", "SQL to execute (default: read statements from stdin)")
		scheme   = flag.String("scheme", "CSO", "optimization scheme: CSO|BFO|ORCL|PSQL")
		rows     = flag.Int("rows", 20_000, "generated web_sales rows")
		mem      = flag.Int("mem", 8<<20, "unit reorder memory in bytes")
		csvPath  = flag.String("csv", "", "optional CSV file to load")
		csvTable = flag.String("table", "csv", "table name for the CSV file")
		maxRows  = flag.Int("n", 40, "max rows to print (0 = all)")
		showPlan = flag.Bool("plan", true, "print the window-function chain")
		showTr   = flag.Bool("trace", false, "print the per-stage trace tree after each statement (\\trace toggles in the shell)")
		format   = flag.String("format", "table", "output format: table|csv|json")
		server   = flag.String("server", "", "send statements to a running windserve at this address instead of embedding an engine")
	)
	flag.Parse()

	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "windsql: unknown -format %q (want table, csv or json)\n", *format)
		os.Exit(2)
	}

	var q windowdb.Queryer
	var tables []string
	if *server != "" {
		client := service.NewClient(*server, nil)
		q = client
		tables = []string{"(remote: " + client.Addr() + ")"}
	} else {
		eng := windowdb.New(windowdb.Config{
			Scheme:       sql.Scheme(*scheme),
			SortMemBytes: *mem,
		})
		cli.RegisterStandardTables(eng, *rows)
		if err := cli.RegisterCSV(eng, *csvPath, *csvTable); err != nil {
			fmt.Fprintf(os.Stderr, "windsql: %v\n", err)
			os.Exit(1)
		}
		// One slot: an interactive shell runs one statement at a time, but
		// the service supplies the metrics plumbing.
		q = service.New(eng, service.Config{Slots: 1})
		tables = eng.Tables()
	}

	tracing := *showTr
	run := func(stmt string) bool { return runStatement(q, stmt, *maxRows, *showPlan, tracing, *format) }

	if *query != "" {
		if !run(*query) {
			os.Exit(1)
		}
		return
	}

	// Shell mode: one statement per line from stdin.
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isTerminal(os.Stdin)
	if interactive {
		fmt.Printf("windsql shell — tables %v; one statement per line, \\trace toggles traces, \\ps lists in-flight queries, \\kill <id> cancels one, \\subscribe <stmt> follows a live result, \\q quits\n", tables)
	}
	failed := false
	for {
		if interactive {
			fmt.Print("windsql> ")
		}
		if !in.Scan() {
			break
		}
		stmt := strings.TrimSpace(strings.TrimRight(strings.TrimSpace(in.Text()), ";"))
		if stmt == "" {
			continue
		}
		if stmt == `\q` || strings.EqualFold(stmt, "exit") || strings.EqualFold(stmt, "quit") {
			break
		}
		if stmt == `\trace` {
			tracing = !tracing
			fmt.Printf("trace output %s\n", map[bool]string{true: "on", false: "off"}[tracing])
			continue
		}
		if stmt == `\ps` {
			listQueries(q)
			continue
		}
		if id, ok := strings.CutPrefix(stmt, `\kill `); ok {
			killQuery(q, strings.TrimSpace(id))
			continue
		}
		if inner, ok := strings.CutPrefix(stmt, `\subscribe `); ok {
			if !runSubscribe(q, strings.TrimSpace(inner), *format) {
				failed = true
			}
			continue
		}
		if !run(stmt) {
			failed = true
		}
	}
	if err := in.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "windsql: %v\n", err)
		os.Exit(1)
	}
	// Piped scripts check $?: any failed statement fails the run. An
	// interactive session stays exit 0, like other SQL shells.
	if failed && !interactive {
		os.Exit(1)
	}
}

// liveQueries fetches the in-flight query registry behind the shell's
// Queryer: directly for an embedded service, over GET /debug/queries for a
// remote windserve (single engine or coordinator — both mount the route).
func liveQueries(q windowdb.Queryer) ([]trace.QueryInfo, error) {
	switch v := q.(type) {
	case *service.Service:
		return v.Registry().Snapshot(), nil
	case *service.Client:
		resp, err := http.Get(v.Addr() + "/debug/queries")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("server answered %s", resp.Status)
		}
		var infos []trace.QueryInfo
		if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
			return nil, err
		}
		return infos, nil
	default:
		return nil, fmt.Errorf("backend exposes no query registry")
	}
}

// listQueries prints the in-flight query registry, newest first.
func listQueries(q windowdb.Queryer) {
	infos, err := liveQueries(q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "windsql: \\ps: %v\n", err)
		return
	}
	if len(infos) == 0 {
		fmt.Println("(no queries in flight)")
		return
	}
	for _, info := range infos {
		sql := info.SQL
		if len(sql) > 60 {
			sql = sql[:57] + "..."
		}
		fmt.Printf("%s  %-10s %-22s %7.0fms  %d rows out  %s\n",
			info.ID, info.Backend, info.Phase, info.ElapsedMillis, info.RowsEmitted, sql)
		for _, node := range info.Nodes {
			fmt.Printf("  └ %-12s %-22s %d rows out\n", node.Backend, node.Phase, node.RowsEmitted)
		}
	}
}

// killQuery cancels one in-flight query by registry ID.
func killQuery(q windowdb.Queryer, id string) {
	if id == "" {
		fmt.Fprintln(os.Stderr, "windsql: usage: \\kill <id> (ids from \\ps)")
		return
	}
	switch v := q.(type) {
	case *service.Service:
		if v.Registry().Kill(id) {
			fmt.Printf("killed %s\n", id)
		} else {
			fmt.Fprintf(os.Stderr, "windsql: no in-flight query %s\n", id)
		}
	case *service.Client:
		req, err := http.NewRequest(http.MethodDelete, v.Addr()+"/debug/queries/"+url.PathEscape(id), nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "windsql: \\kill: %v\n", err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fmt.Fprintf(os.Stderr, "windsql: \\kill: %v\n", err)
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusOK {
			fmt.Printf("killed %s\n", id)
		} else {
			fmt.Fprintf(os.Stderr, "windsql: \\kill: server answered %s\n", resp.Status)
		}
	default:
		fmt.Fprintln(os.Stderr, "windsql: backend exposes no query registry")
	}
}

// runSubscribe serves the shell's \subscribe mode: a live maintained
// cursor over stmt (the SUBSCRIBE prefix is optional) whose rows print
// the moment they arrive — the initial result tagged "init" in the _op
// column, then delta rows as appends land. Ctrl-C ends the subscription
// and returns to the shell; output is one CSV record (or, with -format
// json, one JSON object) per row, flushed per row, because a live stream
// has no natural batch boundary to buffer against.
func runSubscribe(q windowdb.Queryer, stmt, format string) bool {
	if _, ok := windowdb.StripSubscribe(stmt); !ok {
		stmt = "SUBSCRIBE " + stmt
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	rows, err := q.QueryContext(ctx, stmt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "windsql: %v\n", err)
		return false
	}
	defer rows.Close()
	fmt.Println("subscribed — delta rows stream as appends land; Ctrl-C returns to the shell")

	n, err := streamLive(os.Stdout, rows, format)
	interrupted := ctx.Err() != nil
	_ = rows.Close()
	if err == nil && !interrupted {
		err = rows.Err()
	}
	if err != nil && !interrupted && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "windsql: %v\n", err)
		return false
	}
	summary := fmt.Sprintf("\n(subscription closed after %d rows in %v", n, time.Since(start).Round(time.Millisecond))
	if m := rows.Metrics(); m != nil && m.Watermark > 0 {
		summary += fmt.Sprintf("; watermark %d", m.Watermark)
	}
	fmt.Println(summary + ")")
	return true
}

// streamLive prints a live cursor's rows with a flush after every row.
func streamLive(w io.Writer, rows *windowdb.Rows, format string) (int, error) {
	n := 0
	if format == "json" {
		cols := rows.Columns()
		names := make([][]byte, len(cols))
		for i, c := range cols {
			names[i], _ = json.Marshal(c)
		}
		var buf bytes.Buffer
		for rows.Next() {
			buf.Reset()
			buf.WriteByte('{')
			for i, v := range rows.Row() {
				if i > 0 {
					buf.WriteByte(',')
				}
				buf.Write(names[i])
				buf.WriteByte(':')
				jv, err := json.Marshal(service.JSONValue(v))
				if err != nil {
					return n, err
				}
				buf.Write(jv)
			}
			buf.WriteString("}\n")
			if _, err := w.Write(buf.Bytes()); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(rows.Columns()); err != nil {
		return 0, err
	}
	cw.Flush()
	record := make([]string, len(rows.Columns()))
	for rows.Next() {
		for i, v := range rows.Row() {
			if v.IsNull() {
				record[i] = ""
			} else {
				record[i] = v.String()
			}
		}
		if err := cw.Write(record); err != nil {
			return n, err
		}
		cw.Flush()
		n++
	}
	return n, cw.Error()
}

// runStatement executes one statement through the Queryer, prints rows
// incrementally in the selected format, then the latency line. It reports
// success.
func runStatement(q windowdb.Queryer, stmt string, maxRows int, showPlan, showTrace bool, format string) bool {
	start := time.Now()
	rows, err := q.QueryContext(context.Background(), stmt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "windsql: %v\n", err)
		return false
	}
	defer rows.Close()

	n, truncated, err := printRows(os.Stdout, rows, maxRows, format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "windsql: %v\n", err)
		return false
	}
	// Ending the cursor (drain or truncation Close) finalizes the metrics.
	_ = rows.Close()
	elapsed := time.Since(start)

	if truncated {
		fmt.Printf("... (first %d rows; -n 0 prints all)\n", n)
	}
	m := rows.Metrics()
	if m == nil {
		// A remote stream closed before its trailer has no confirmed
		// metadata; report what the client observed.
		fmt.Printf("\n(%d rows in %v)\n", n, elapsed.Round(time.Microsecond))
		return true
	}
	blocks := m.BlocksRead + m.BlocksWritten
	disposition := "plan cache miss"
	if m.CacheHit {
		disposition = "plan cache hit"
	}
	fmt.Printf("\n(%d rows in %v; %d I/O blocks: %d read, %d written; %s)\n",
		n, elapsed.Round(time.Microsecond), blocks, m.BlocksRead, m.BlocksWritten, disposition)
	if m.Route != "" {
		fmt.Printf("route: %s over %d shard(s)\n", m.Route, m.ShardsUsed)
	}
	if showPlan && m.Chain != "" {
		fmt.Printf("chain: %s\n", m.Chain)
		fmt.Printf("%d key comparisons; final sort: %s\n", m.Comparisons, m.FinalSort)
	}
	if showTrace {
		if m.Trace == nil {
			fmt.Println("trace: (none recorded)")
		} else {
			if m.TraceID != "" {
				fmt.Printf("trace %s:\n", m.TraceID)
			}
			for _, line := range trace.Render(m.Trace) {
				fmt.Printf("  %s\n", line)
			}
		}
	}
	return true
}

// printRows renders the cursor incrementally. It returns the number of
// rows printed and whether output stopped at maxRows with the stream
// still flowing.
func printRows(w io.Writer, rows *windowdb.Rows, maxRows int, format string) (int, bool, error) {
	var n int
	var truncated bool
	var err error
	switch format {
	case "csv":
		n, truncated, err = printCSV(w, rows, maxRows)
	case "json":
		n, truncated, err = printJSON(w, rows, maxRows)
	default:
		n, truncated, err = printTable(w, rows, maxRows)
	}
	if err != nil {
		return n, truncated, err
	}
	return n, truncated, rows.Err()
}

// printCSV streams rows through encoding/csv, header first.
func printCSV(w io.Writer, rows *windowdb.Rows, maxRows int) (int, bool, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(rows.Columns()); err != nil {
		return 0, false, err
	}
	n := 0
	record := make([]string, len(rows.Columns()))
	for rows.Next() {
		for i, v := range rows.Row() {
			if v.IsNull() {
				record[i] = ""
			} else {
				record[i] = v.String()
			}
		}
		if err := cw.Write(record); err != nil {
			return n, false, err
		}
		n++
		if n%64 == 0 {
			cw.Flush()
		}
		if maxRows > 0 && n >= maxRows {
			cw.Flush()
			// Probe one more row: an exact-boundary result is complete,
			// not truncated (and a remote cursor gets to read its trailer).
			return n, rows.Next(), cw.Error()
		}
	}
	cw.Flush()
	return n, false, cw.Error()
}

// printJSON streams one JSON object per line, preserving column order.
func printJSON(w io.Writer, rows *windowdb.Rows, maxRows int) (int, bool, error) {
	bw := bufio.NewWriter(w)
	cols := rows.Columns()
	names := make([][]byte, len(cols))
	for i, c := range cols {
		names[i], _ = json.Marshal(c)
	}
	n := 0
	var buf bytes.Buffer
	for rows.Next() {
		buf.Reset()
		buf.WriteByte('{')
		for i, v := range rows.Row() {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.Write(names[i])
			buf.WriteByte(':')
			jv, err := json.Marshal(service.JSONValue(v))
			if err != nil {
				return n, false, err
			}
			buf.Write(jv)
		}
		buf.WriteString("}\n")
		if _, err := bw.Write(buf.Bytes()); err != nil {
			return n, false, err
		}
		n++
		if n%64 == 0 {
			if err := bw.Flush(); err != nil {
				return n, false, err
			}
		}
		if maxRows > 0 && n >= maxRows {
			if err := bw.Flush(); err != nil {
				return n, false, err
			}
			return n, rows.Next(), nil
		}
	}
	return n, false, bw.Flush()
}

// tableProbeRows is how many rows the table format buffers to size its
// columns before streaming the rest with fixed widths.
const tableProbeRows = 64

// printTable renders padded columns. Column widths come from the header
// and the first tableProbeRows rows; later, wider values overflow their
// cell rather than re-layout — the price of streaming output.
func printTable(w io.Writer, rows *windowdb.Rows, maxRows int) (int, bool, error) {
	bw := bufio.NewWriter(w)
	cols := rows.Columns()
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}

	probe := tableProbeRows
	if maxRows > 0 && maxRows < probe {
		probe = maxRows
	}
	var buffered []storage.Tuple
	doneEarly := false
	for len(buffered) < probe {
		if !rows.Next() {
			doneEarly = true
			break
		}
		row := rows.Row()
		buffered = append(buffered, row)
		for i, v := range row {
			if l := len(v.String()); l > widths[i] {
				widths[i] = l
			}
		}
	}

	writeRow := func(cells []string) error {
		for i, s := range cells {
			if i > 0 {
				bw.WriteString("  ")
			}
			fmt.Fprintf(bw, "%-*s", widths[i], s)
		}
		return bw.WriteByte('\n')
	}
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = strings.ToUpper(c)
	}
	if err := writeRow(header); err != nil {
		return 0, false, err
	}
	cells := make([]string, len(cols))
	render := func(row storage.Tuple) error {
		for i, v := range row {
			cells[i] = v.String()
		}
		return writeRow(cells)
	}
	n := 0
	for _, row := range buffered {
		if err := render(row); err != nil {
			return n, false, err
		}
		n++
	}
	if maxRows > 0 && n >= maxRows && !doneEarly {
		// More rows may be flowing; report truncation only if one more
		// actually arrives.
		more := rows.Next()
		return n, more, bw.Flush()
	}
	if !doneEarly {
		for rows.Next() {
			if err := render(rows.Row()); err != nil {
				return n, false, err
			}
			n++
			if n%64 == 0 {
				if err := bw.Flush(); err != nil {
					return n, false, err
				}
			}
			if maxRows > 0 && n >= maxRows {
				more := rows.Next()
				return n, more, bw.Flush()
			}
		}
	}
	return n, false, bw.Flush()
}

func isTerminal(f *os.File) bool {
	info, err := f.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}
