package paper

const byItemDate = `PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_order_number`

// Statements is the paper's Q1–Q9 and the benchmark's F1–F6 as SQL, by
// name, over web_sales and its sorted (web_sales_s) and grouped
// (web_sales_g) variants: every statement shape a result path has to
// serve, for the test matrices that run them all.
var Statements = map[string]string{
	"Q1": `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`,
	"Q2": `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk, ws_bill_customer_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`,
	"Q3": `SELECT ws_warehouse_sk, rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`,
	"Q4": `SELECT ws_quantity, rank() OVER (PARTITION BY ws_quantity ORDER BY ws_item_sk) AS r FROM web_sales_s`,
	"Q5": `SELECT ws_quantity, rank() OVER (PARTITION BY ws_quantity ORDER BY ws_item_sk) AS r FROM web_sales_g`,
	"Q6": `SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r1,
		rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS r2 FROM web_sales`,
	"Q7": `SELECT rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk, ws_ship_date_sk) AS r1,
		rank() OVER (PARTITION BY ws_sold_time_sk, ws_sold_date_sk) AS r2,
		rank() OVER (PARTITION BY ws_item_sk) AS r3,
		rank() OVER (ORDER BY ws_item_sk, ws_bill_customer_sk) AS r4,
		rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk, ws_item_sk, ws_bill_customer_sk ORDER BY ws_ship_date_sk) AS r5 FROM web_sales`,
	"Q8": `SELECT rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk, ws_ship_date_sk) AS r1,
		rank() OVER (PARTITION BY ws_sold_time_sk, ws_sold_date_sk) AS r2,
		rank() OVER (PARTITION BY ws_item_sk) AS r3,
		rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS r4,
		rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk, ws_item_sk ORDER BY ws_bill_customer_sk, ws_ship_date_sk) AS r5 FROM web_sales`,
	"Q9": `SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk, ws_sold_date_sk) AS r1,
		rank() OVER (PARTITION BY ws_item_sk, ws_sold_time_sk ORDER BY ws_sold_date_sk) AS r2,
		rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r3,
		rank() OVER (ORDER BY ws_item_sk, ws_sold_date_sk) AS r4,
		rank() OVER (PARTITION BY ws_bill_customer_sk, ws_sold_date_sk ORDER BY ws_sold_time_sk) AS r5,
		rank() OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_time_sk) AS r6,
		rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk) AS r7,
		rank() OVER (ORDER BY ws_sold_time_sk) AS r8 FROM web_sales`,
	"F1": `SELECT ws_item_sk, ws_order_number,
		sum(ws_quantity) OVER (` + byItemDate + ` ROWS BETWEEN 10 PRECEDING AND CURRENT ROW) AS s10,
		avg(ws_quantity) OVER (` + byItemDate + ` ROWS BETWEEN 50 PRECEDING AND 50 FOLLOWING) AS a50 FROM web_sales`,
	"F2": `SELECT ws_item_sk, ws_order_number,
		min(ws_sales_price) OVER (` + byItemDate + ` ROWS BETWEEN 50 PRECEDING AND CURRENT ROW) AS lo,
		max(ws_sales_price) OVER (` + byItemDate + ` ROWS BETWEEN 10 PRECEDING AND 50 FOLLOWING) AS hi FROM web_sales`,
	"F3": `SELECT ws_item_sk, ws_order_number,
		sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk RANGE BETWEEN 10 PRECEDING AND CURRENT ROW) AS s FROM web_sales`,
	"F4": `SELECT ws_bill_customer_sk, ws_order_number,
		lag(ws_sales_price, 1) OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk, ws_order_number) AS prev,
		lead(ws_sales_price, 1) OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk, ws_order_number) AS nxt
		FROM web_sales WHERE ws_quantity > 50 ORDER BY ws_order_number LIMIT 100`,
	"F5": `SELECT ws_warehouse_sk, ws_order_number,
		ntile(4) OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_list_price, ws_order_number) AS q,
		first_value(ws_list_price) OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_list_price, ws_order_number) AS lo,
		last_value(ws_list_price) OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_list_price, ws_order_number ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS hi
		FROM web_sales WHERE ws_quantity <= 50 ORDER BY ws_warehouse_sk, ws_order_number LIMIT 100`,
	"F6": `SELECT DISTINCT ws_item_sk,
		max(ws_quantity) OVER (PARTITION BY ws_item_sk) AS mx,
		count(*) OVER (PARTITION BY ws_item_sk) AS n FROM web_sales`,
}
