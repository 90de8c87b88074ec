// Command windserve is the HTTP/JSON front end of the query service: a
// windowdb.Engine (whose plan cache -cachesize bounds) wrapped in
// internal/service's admission control and metrics, serving the one route
// table every role serves (service.NewHandler), each route answering the
// methods it declares:
//
//	GET, POST   /query               GET ?q=SELECT+..., POST {"sql": "SELECT ...", "max_rows": 100, "timeout_ms": 5000}
//	POST        /append              one batch of rows for a registered table
//	GET         /stats               counters (QPS, p50/p95/p99, cache, admission)
//	GET         /healthz             liveness probe
//	GET         /metrics             Prometheus exposition
//	GET         /debug/trace/[{id}]  recent statement traces
//	GET         /debug/queries       in-flight statements
//	GET, DELETE /debug/queries/{id}  one in-flight statement; DELETE kills it
//
// Every GET route answers HEAD too, and any other method a 405 naming the
// route's methods. With -shardnode it also serves the /shard/* routes that
// let a cluster coordinator use this process as a shard node:
//
//	POST /shard/query, /shard/register, /shard/shuffle, /shard/shuffle/run, /shard/shuffle/drop
//	GET  /shard/distinct
//
// A coordinator serves the same public routes.
//
// /query answers buffered JSON by default; "stream":true, ?stream=1 or
// `Accept: application/x-ndjson` switches to the chunked NDJSON row
// stream, and an Accept naming application/x-windowdb-frame to the binary
// one (service.Client and windsql -server consume it); either way the
// admission slot is released the moment the client disconnects.
//
// Three roles, selected by flags:
//
//	windserve                          # single engine (the default)
//	windserve -shardnode               # shard node: starts with an empty
//	                                   # catalog, a coordinator pushes
//	                                   # partitions via /shard/register
//	windserve -shards host1,host2,...  # coordinator: shards the standard
//	                                   # tables across the named nodes and
//	                                   # serves scatter-gather /query,
//	                                   # aggregated /stats, fan-out /healthz
//
// A single-engine instance registers the same tables as windsql: emptab
// (Example 1 of the paper), web_sales and its sorted/grouped variants
// (-rows controls size), plus any -csv/-table pair. Example cluster:
//
//	windserve -shardnode -addr :8081 &
//	windserve -shardnode -addr :8082 &
//	windserve -shards 127.0.0.1:8081,127.0.0.1:8082 -addr :8080 &
//	curl -s localhost:8080/query -d '{"sql":"SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales", "max_rows": 3}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sql"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		scheme   = flag.String("scheme", "CSO", "optimization scheme: CSO|BFO|ORCL|PSQL")
		rows     = flag.Int("rows", 20_000, "generated web_sales rows")
		mem      = flag.Int("mem", 8<<20, "unit reorder memory M in bytes")
		budget   = flag.Int("budget", 0, "global reorder-memory budget in bytes (0 = 4 chains' worth)")
		slots    = flag.Int("slots", 0, "execution slots (0 = budget / per-chain memory)")
		queue    = flag.Int("queue", 64, "admission queue bound (-1 = no queue)")
		cache    = flag.Int("cachesize", 256, "plan cache entries")
		share    = flag.Bool("share", true, "cross-query shared-subplan cache: concurrent queries over one (table, WHERE, partition key) share one scan+reorder execution")
		subplans = flag.Int("subplans", 32, "shared-subplan cache entries (each pins one materialized segment)")
		timeout  = flag.Duration("timeout", 30*time.Second, "default per-query timeout (0 = none)")
		// Serving concurrency comes from the clients; per-query parallel
		// workers multiply each admitted chain's memory claim (the governor
		// accounts M × degree per slot), so they are opt-in here.
		parallelism = flag.Int("parallelism", 1, "per-query parallel worker degree (0 = GOMAXPROCS)")
		csvPath     = flag.String("csv", "", "optional CSV file to load")
		csvTable    = flag.String("table", "csv", "table name for the CSV file")
		shards      = flag.String("shards", "", "comma-separated shard node addresses: run as cluster coordinator")
		shardNode   = flag.Bool("shardnode", false, "run as a shard node: empty catalog, tables arrive via /shard/register")
		slowlog     = flag.Duration("slowlog", 0, "slow-query log threshold: queries at or over it emit one JSON line (trace tree included) to stderr (0 = off)")
		slowlograte = flag.Int("slowlograte", 0, "slow-query log cap in lines per second; suppressed lines are counted onto the next emitted line (0 = default 10, negative = uncapped)")
		traceRing   = flag.Int("tracering", 128, "recent query traces kept for /debug/trace/{id} (negative = off)")
		pprofAddr   = flag.String("pprof", "", "optional private listen address for net/http/pprof (e.g. 127.0.0.1:6060); never mounted on the public mux")
	)
	flag.Parse()

	engCfg := windowdb.Config{
		Scheme:       sql.Scheme(*scheme),
		SortMemBytes: *mem,
		Parallelism:  *parallelism,
		// Every role plans through its engine's cache: a single engine, a
		// shard node and a coordinator alike.
		PlanCacheEntries: *cache,
	}

	front := service.FrontConfig{
		DefaultTimeout:   *timeout,
		TraceRing:        *traceRing,
		SlowLogThreshold: *slowlog,
		SlowLogRate:      *slowlograte,
	}

	startPprof(*pprofAddr)

	if *shards != "" {
		// Coordinator role. Chains run on the shard nodes: -slots, -budget
		// and -queue govern their admission and are set where those
		// processes start.
		serveCoordinator(*shards, *addr, shard.Config{FrontConfig: front, Engine: engCfg}, *rows, *csvPath, *csvTable)
		return
	}

	eng := windowdb.New(engCfg)
	if !*shardNode {
		cli.RegisterStandardTables(eng, *rows)
		if err := cli.RegisterCSV(eng, *csvPath, *csvTable); err != nil {
			log.Fatalf("windserve: %v", err)
		}
	}

	svc := service.New(eng, service.Config{
		FrontConfig:       front,
		MemoryBudgetBytes: *budget,
		Slots:             *slots,
		MaxQueue:          *queue,
		SubplanEntries:    *subplans,
		DisableSharing:    !*share,
		// Only shard nodes expose the /shard/* surface: register/table
		// would let any client overwrite or dump tables on a public
		// single-engine server.
		ShardRoutes: *shardNode,
	})

	role := "engine"
	if *shardNode {
		role = "shard node"
	}
	fmt.Printf("windserve: %s listening on %s (%d slots, queue %d, cache %d, tables %v)\n",
		role, *addr, svc.Slots(), *queue, *cache, eng.Tables())
	serve(*addr, svc.Handler())
}

// serveCoordinator forms a cluster over the comma-separated shard nodes,
// distributes the standard tables (rows deep) and any CSV file, and serves
// the coordinator front end on addr.
func serveCoordinator(shardList, addr string, cfg shard.Config, rows int, csvPath, csvTable string) {
	var transports []shard.Transport
	var addrs []string
	for _, a := range strings.Split(shardList, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		addrs = append(addrs, a)
		transports = append(transports, shard.NewHTTP(a, nil))
	}
	cluster, err := shard.New(cfg, transports)
	if err != nil {
		log.Fatalf("windserve: %v", err)
	}

	// Wait for every node before pushing partitions: cluster boots race
	// their shards' listeners.
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		if err = cluster.Health(waitCtx); err == nil {
			break
		}
		select {
		case <-waitCtx.Done():
			log.Fatalf("windserve: shards never became healthy: %v", err)
		case <-time.After(100 * time.Millisecond):
		}
	}

	ctx := context.Background()
	if err := cli.RegisterStandardTablesSharded(ctx, cluster, rows); err != nil {
		log.Fatalf("windserve: sharding tables: %v", err)
	}
	if err := cli.RegisterCSVReplicated(ctx, cluster, csvPath, csvTable); err != nil {
		log.Fatalf("windserve: %v", err)
	}

	fmt.Printf("windserve: coordinator listening on %s (%d shards: %s)\n",
		addr, cluster.Shards(), strings.Join(addrs, ", "))
	serve(addr, cluster.Handler())
}

// startPprof exposes net/http/pprof on its own private listener when
// -pprof names an address. Deliberately a separate mux and server: the
// profiling surface never mounts on the public (or cluster-internal)
// handler, so exposing the query port exposes no heap dumps.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("windserve: pprof listener: %v", err)
		}
	}()
	fmt.Printf("windserve: pprof on http://%s/debug/pprof/\n", addr)
}

// serve runs the HTTP server with graceful shutdown on SIGINT/SIGTERM.
func serve(addr string, h http.Handler) {
	srv := &http.Server{Addr: addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("windserve: %v", err)
	}
}
