package main

import (
	"encoding/binary"
	"math"

	"repro/internal/datagen"
	"repro/internal/storage"
)

// defaultSeed is the paper's publication date, the seed the sizes in
// sizes.go were probed with.
const defaultSeed = 20120827

// blockSize is the simulated page size every workload runs with.
const blockSize = 8192

// genConfig pins the web_sales generator: every distinct count is passed
// explicitly (the paper's scale-factor-100 proportions, frozen here), so a
// change to datagen's defaults shows up as a different fixture hash
// instead of silently moved numbers.
func genConfig(rows int, seed int64) datagen.WebSalesConfig {
	return datagen.WebSalesConfig{
		Rows:              rows,
		Seed:              seed,
		DateDistinct:      max(rows/40_000, 60),
		TimeDistinct:      max(rows/840, 120),
		ShipDistinct:      max(rows/40_000, 60),
		ItemDistinct:      max(rows/353, 16),
		BillDistinct:      max(rows/36, 64),
		WarehouseDistinct: 16,
		QuantityDistinct:  100,
		PadBytes:          96,
	}
}

// spillMemBytes is the chain_spill reorder budget for a table of the given
// size: M = floor(0.85*sqrt(B/2)) blocks, just under the one-merge-pass
// threshold of replacement selection (runs of 2M, fan-in M) — the paper's
// "75MB" regime scaled to the fixture.
func spillMemBytes(t *storage.Table) int {
	b := float64(t.ByteSize() / blockSize)
	m := int(0.85 * math.Sqrt(b/2))
	return max(m, 3) * blockSize
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashRow is FNV-1a over a kind-tagged encoding of the row's values: the
// unit of both the fixture content hash and the result checksums. It is
// deliberately independent of the engine's own tuple codec.
func hashRow(t storage.Tuple) uint64 {
	h := uint64(fnvOffset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= fnvPrime
	}
	var buf [8]byte
	for _, v := range t {
		mix(byte(v.Kind()))
		switch v.Kind() {
		case storage.KindInt:
			binary.LittleEndian.PutUint64(buf[:], uint64(v.Int64()))
		case storage.KindFloat:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float64()))
		case storage.KindString:
			for _, c := range []byte(v.Str()) {
				mix(c)
			}
			continue
		default:
			continue
		}
		for _, c := range buf {
			mix(c)
		}
	}
	return h
}

// tableHash is the order-sensitive content hash of a fixture table.
func tableHash(t *storage.Table) uint64 {
	h := uint64(fnvOffset)
	for _, row := range t.Rows {
		h = (h ^ hashRow(row)) * fnvPrime
	}
	return h
}

// statement is one entry of a workload's fixed round-robin mix.
type statement struct {
	ID    string
	Table string
	SQL   string
	// Where is the statement's WHERE predicate ("" when absent); the ladder
	// uses it to hand exec.Run the same filtered input the statement sees.
	Where string
	// Core, on frames_inmem statements, is the statement reduced to
	// `SELECT ws_order_number, <window items> FROM web_sales [WHERE ...]`:
	// what window.Reference is compared with on the sample table.
	Core string
}

// The paper's Section 6 workloads as SQL. Copied from, not imported from,
// internal/bench: the benchmark's statement list must not move when that
// package is edited.
const (
	sqlQ1 = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	sqlQ2 = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk, ws_bill_customer_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	sqlQ3 = `SELECT ws_warehouse_sk, rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	sqlQ4 = `SELECT ws_quantity, rank() OVER (PARTITION BY ws_quantity ORDER BY ws_item_sk) AS r FROM web_sales_s`
	sqlQ5 = `SELECT ws_quantity, rank() OVER (PARTITION BY ws_quantity ORDER BY ws_item_sk) AS r FROM web_sales_g`
	sqlQ6 = `SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r1,
	rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS r2 FROM web_sales`
	sqlQ7 = `SELECT rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk, ws_ship_date_sk) AS r1,
	rank() OVER (PARTITION BY ws_sold_time_sk, ws_sold_date_sk) AS r2,
	rank() OVER (PARTITION BY ws_item_sk) AS r3,
	rank() OVER (ORDER BY ws_item_sk, ws_bill_customer_sk) AS r4,
	rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk, ws_item_sk, ws_bill_customer_sk ORDER BY ws_ship_date_sk) AS r5 FROM web_sales`
	sqlQ8 = `SELECT rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk, ws_ship_date_sk) AS r1,
	rank() OVER (PARTITION BY ws_sold_time_sk, ws_sold_date_sk) AS r2,
	rank() OVER (PARTITION BY ws_item_sk) AS r3,
	rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS r4,
	rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk, ws_item_sk ORDER BY ws_bill_customer_sk, ws_ship_date_sk) AS r5 FROM web_sales`
	sqlQ9 = `SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk, ws_sold_date_sk) AS r1,
	rank() OVER (PARTITION BY ws_item_sk, ws_sold_time_sk ORDER BY ws_sold_date_sk) AS r2,
	rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r3,
	rank() OVER (ORDER BY ws_item_sk, ws_sold_date_sk) AS r4,
	rank() OVER (PARTITION BY ws_bill_customer_sk, ws_sold_date_sk ORDER BY ws_sold_time_sk) AS r5,
	rank() OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_time_sk) AS r6,
	rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk) AS r7,
	rank() OVER (ORDER BY ws_sold_time_sk) AS r8 FROM web_sales`
	// Q6d keeps Q6's first function on the shard key and moves the second
	// to the warehouse key, so the chain cannot scatter whole.
	sqlQ6d = `SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r1,
	rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS r2 FROM web_sales`
	// Q6 with its row identity projected: what the SUBSCRIBE cursor
	// maintains (no ORDER BY, shard-local on the item key).
	sqlQ6Sub = `SELECT ws_item_sk, ws_order_number,
	rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r1,
	rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS r2 FROM web_sales`
)

// chainStatements is chain_spill's mix: the rank-only chains over the
// unordered table.
func chainStatements() []statement {
	return []statement{
		{ID: "Q1", Table: "web_sales", SQL: sqlQ1},
		{ID: "Q2", Table: "web_sales", SQL: sqlQ2},
		{ID: "Q3", Table: "web_sales", SQL: sqlQ3},
		{ID: "Q6", Table: "web_sales", SQL: sqlQ6},
		{ID: "Q7", Table: "web_sales", SQL: sqlQ7},
		{ID: "Q8", Table: "web_sales", SQL: sqlQ8},
		{ID: "Q9", Table: "web_sales", SQL: sqlQ9},
	}
}

// serveStatements is serve_http's mix: Q1-Q9 plus the four correlated
// dashboard grains that share one reorder through the subplan cache.
func serveStatements() []statement {
	return []statement{
		{ID: "Q1", Table: "web_sales", SQL: sqlQ1},
		{ID: "Q2", Table: "web_sales", SQL: sqlQ2},
		{ID: "Q3", Table: "web_sales", SQL: sqlQ3},
		{ID: "Q4", Table: "web_sales_s", SQL: sqlQ4},
		{ID: "Q5", Table: "web_sales_g", SQL: sqlQ5},
		{ID: "Q6", Table: "web_sales", SQL: sqlQ6},
		{ID: "Q7", Table: "web_sales", SQL: sqlQ7},
		{ID: "Q8", Table: "web_sales", SQL: sqlQ8},
		{ID: "Q9", Table: "web_sales", SQL: sqlQ9},
		{ID: "S1", Table: "web_sales", SQL: `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_sold_time_sk, ws_order_number) AS r FROM web_sales`},
		{ID: "S2", Table: "web_sales", SQL: `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_sold_time_sk) AS r FROM web_sales`},
		{ID: "S3", Table: "web_sales", SQL: `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`},
		{ID: "S4", Table: "web_sales", SQL: `SELECT ws_item_sk, sum(ws_quantity) OVER (PARTITION BY ws_item_sk) AS s FROM web_sales`},
	}
}

func clusterStatements() []statement {
	return []statement{
		{ID: "Q6", Table: "web_sales", SQL: sqlQ6},
		{ID: "Q6d", Table: "web_sales", SQL: sqlQ6d},
	}
}

// frameStatement assembles one frames_inmem statement and its Core form.
// Every ROWS frame, lag/lead and ntile orders on a key ending in the
// unique ws_order_number, and every summed column is an integer, so the
// expected values do not depend on tie order or float summation order and
// an independent execution path must reproduce them bit for bit.
func frameStatement(id, cols, wins, where, tail string, distinct bool) statement {
	sel := "SELECT "
	if distinct {
		sel += "DISTINCT "
	}
	from := " FROM web_sales"
	if where != "" {
		from += " WHERE " + where
	}
	return statement{
		ID:    id,
		Table: "web_sales",
		SQL:   sel + cols + ", " + wins + from + tail,
		Where: where,
		Core:  "SELECT ws_order_number, " + wins + from,
	}
}

// frameStatements is frames_inmem's mix: sliding aggregates, a RANGE
// frame, navigation functions, and the sql finalize paths (WHERE +
// ORDER BY ... LIMIT twice, DISTINCT once).
func frameStatements() []statement {
	const byItemDate = `PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_order_number`
	return []statement{
		frameStatement("F1", "ws_item_sk, ws_order_number",
			`sum(ws_quantity) OVER (`+byItemDate+` ROWS BETWEEN 10 PRECEDING AND CURRENT ROW) AS s10,
	avg(ws_quantity) OVER (`+byItemDate+` ROWS BETWEEN 50 PRECEDING AND 50 FOLLOWING) AS a50`,
			"", "", false),
		frameStatement("F2", "ws_item_sk, ws_order_number",
			`min(ws_sales_price) OVER (`+byItemDate+` ROWS BETWEEN 50 PRECEDING AND CURRENT ROW) AS lo,
	max(ws_sales_price) OVER (`+byItemDate+` ROWS BETWEEN 10 PRECEDING AND 50 FOLLOWING) AS hi`,
			"", "", false),
		frameStatement("F3", "ws_item_sk, ws_order_number",
			`sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk RANGE BETWEEN 10 PRECEDING AND CURRENT ROW) AS s`,
			"", "", false),
		frameStatement("F4", "ws_bill_customer_sk, ws_order_number",
			`lag(ws_sales_price, 1) OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk, ws_order_number) AS prev,
	lead(ws_sales_price, 1) OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk, ws_order_number) AS nxt`,
			"ws_quantity > 50", " ORDER BY ws_order_number LIMIT 1000", false),
		frameStatement("F5", "ws_warehouse_sk, ws_order_number",
			`ntile(4) OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_list_price, ws_order_number) AS q,
	first_value(ws_list_price) OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_list_price, ws_order_number) AS lo,
	last_value(ws_list_price) OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_list_price, ws_order_number ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS hi`,
			"ws_quantity <= 50", " ORDER BY ws_warehouse_sk, ws_order_number LIMIT 1000", false),
		frameStatement("F6", "ws_item_sk",
			`max(ws_quantity) OVER (PARTITION BY ws_item_sk) AS mx,
	count(*) OVER (PARTITION BY ws_item_sk) AS n`,
			"", "", true),
	}
}
