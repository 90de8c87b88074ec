// Movingavg: frame-based aggregate window functions — moving averages,
// cumulative sums, and RANGE frames — over a synthetic daily-sales series.
//
// Demonstrates the OLAP use cases the paper's introduction motivates
// ("moving averages and cumulative sums can be expressed concisely in a
// single SQL statement") on this engine, including a 7-day RANGE frame that
// handles gaps in the date sequence correctly. It exits non-zero unless
// every window value equals the one recomputed from the rows themselves.
//
// Run with: go run ./examples/movingavg
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro"
	"repro/internal/sql"
	"repro/internal/storage"
)

func main() {
	eng := windowdb.New(windowdb.Config{})
	eng.Register("daily_sales", buildDailySales())

	res, err := eng.Query(`
		SELECT store, day, revenue,
		       avg(revenue) OVER (PARTITION BY store ORDER BY day
		                          ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS ma3,
		       sum(revenue) OVER (PARTITION BY store ORDER BY day) AS cumulative,
		       avg(revenue) OVER (PARTITION BY store ORDER BY day
		                          RANGE BETWEEN 6 PRECEDING AND CURRENT ROW) AS weekly_avg,
		       max(revenue) OVER (PARTITION BY store) AS best_day
		FROM daily_sales
		WHERE store = 1
		ORDER BY day
		LIMIT 20`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("store 1, first 20 days: 3-day moving average, cumulative sum,")
	fmt.Println("calendar-correct 7-day RANGE average, and the store's best day:")
	fmt.Print(sql.FormatTable(res.Table, 0))
	fmt.Printf("\nchain: %s\n", res.Plan.PaperString())
	fmt.Println("(all four aggregates share one reordering: they form a single cover set)")
	check(res.Table)
}

// check recomputes each window value of the first rows of the store's
// series from those rows alone — every frame ends at the current row, so
// the rows before it are all it needs — and fails on any difference.
func check(t *storage.Table) {
	if t.Len() != 20 {
		log.Fatalf("%d rows, want 20", t.Len())
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }
	avg := func(rows []storage.Tuple) float64 {
		var sum float64
		for _, r := range rows {
			sum += r[2].Float64()
		}
		return sum / float64(len(rows))
	}
	var cumulative float64
	for i, row := range t.Rows {
		day, revenue := row[1].Int64(), row[2].Float64()
		cumulative += revenue
		week := i
		for week > 0 && t.Rows[week-1][1].Int64() >= day-6 {
			week--
		}
		ma3 := avg(t.Rows[max(0, i-2) : i+1])
		weekly := avg(t.Rows[week : i+1])
		if !near(row[3].Float64(), ma3) || !near(row[4].Float64(), cumulative) ||
			!near(row[5].Float64(), weekly) || row[6].Float64() < revenue {
			log.Fatalf("day %d: got ma3 %v cumulative %v weekly %v best %v, want %v %v %v and at least %v",
				day, row[3], row[4], row[5], row[6], ma3, cumulative, weekly, revenue)
		}
	}
}

// buildDailySales synthesizes 3 stores × ~60 days of revenue with weekly
// seasonality and occasional missing days (to exercise RANGE frames).
func buildDailySales() *storage.Table {
	schema := storage.NewSchema(
		storage.Column{Name: "store", Type: storage.TypeInt},
		storage.Column{Name: "day", Type: storage.TypeInt},
		storage.Column{Name: "revenue", Type: storage.TypeFloat},
	)
	t := storage.NewTable(schema)
	rng := rand.New(rand.NewSource(3))
	for store := int64(1); store <= 3; store++ {
		for day := int64(1); day <= 60; day++ {
			if rng.Intn(8) == 0 {
				continue // store closed: a gap in the series
			}
			weekly := 1 + 0.3*math.Sin(2*math.Pi*float64(day)/7)
			rev := 1000*weekly*float64(store) + rng.Float64()*200
			t.MustAppend(storage.Tuple{
				storage.Int(store),
				storage.Int(day),
				storage.Float(math.Round(rev*100) / 100),
			})
		}
	}
	return t
}
