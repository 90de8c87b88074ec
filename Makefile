# Local targets mirroring .github/workflows/ci.yml.
GO ?= go

.PHONY: build examples test race test-long bench golden fmt fmt-check vet loc benchmark-check benchmark-smoke serve load-smoke cluster-smoke ci

build:
	$(GO) build ./...

# Run every example program; each checks its own result and exits
# non-zero on a wrong one.
EXAMPLES = quickstart movingavg salesreport parallel
examples:
	@for ex in $(EXAMPLES); do \
		$(GO) run ./examples/$$ex > /dev/null || { echo "examples: $$ex failed" >&2; exit 1; }; \
		echo "examples: $$ex OK"; \
	done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The generated tests at about 15 times their tier-1 seeds. Only the
# packages that import internal/gen accept -long.
GEN_PKGS = ./internal/window ./internal/exec ./internal/sql ./internal/delta ./internal/shard ./internal/conformance
test-long:
	$(GO) test -count=1 $(GEN_PKGS) -long

# One iteration per benchmark: a smoke run, not a measurement — but the
# B/op and allocs/op columns repeat, so they are worth reading. The root
# package's one benchmark, BenchmarkPaper, runs every experiment of the
# paper's evaluation through internal/bench's runner at 20 000 rows and
# reports its blocks/op and cmps/op (exact); the per-package benchmarks
# measure one layer each. Use cmd/windbench for the full-scale sweeps.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./...

# Rewrite internal/bench/testdata/paper.golden — every experiment's plans,
# cuts, estimates, blocks and comparisons, which TestPaperGolden holds the
# tree to — from this tree. Review the diff: a line that moves is a paper
# figure that moved.
golden:
	$(GO) test ./internal/bench -run '^TestPaperGolden$$' -count=1 -update

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Non-blank lines of non-test Go per package, then the two subtotals
# ROADMAP quotes — the paper engine and serving — and the total for module
# repro, then every non-test file over LOC_FILE_MAX non-blank lines, so
# every CI log records the trend and the files that outgrew it.
ENGINE_PKGS = core exec reorder xsort window storage spill pagestore
SERVING_PKGS = service shard
LOC_FILE_MAX = 600
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | while read pkg files; do \
		[ -n "$$files" ] || continue; \
		printf '%6d  %s\n' "$$(cat $$files | grep -cv '^[[:space:]]*$$')" "$$pkg"; \
	done | awk -v engine="$(ENGINE_PKGS)" -v serving="$(SERVING_PKGS)" ' \
		BEGIN { split(engine, e); for (i in e) eng["repro/internal/" e[i]] = 1; \
			split(serving, v); for (i in v) srv["repro/internal/" v[i]] = 1 } \
		{ print; total += $$1; if ($$2 in eng) et += $$1; if ($$2 in srv) st += $$1 } \
		END { printf "%6d  subtotal (paper engine: %s)\n", et, engine; \
			printf "%6d  subtotal (serving: %s)\n", st, serving; \
			printf "%6d  total (module repro)\n", total }'
	@$(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./... | tr ' ' '\n' | while read f; do \
		[ -n "$$f" ] || continue; \
		n=$$(grep -cv '^[[:space:]]*$$' "$$f"); \
		[ "$$n" -le $(LOC_FILE_MAX) ] || printf '%6d  over $(LOC_FILE_MAX): %s\n' "$$n" "$${f#$(CURDIR)/}"; \
	done

# benchmark/ is its own module (replace repro => ../), so the root build,
# vet and test never see it: this is the gate that an internal/* API
# change has not broken the harness BENCHMARK.json runs.
benchmark-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# One short run each of the spilling chain workload (the one whose chains
# carve recycled arena slabs), of the served workload a change is most often
# measured on, of the in-memory frames workload (the one that runs sql
# finalize) and of the cluster workload the benchmark driver does not gate
# (two HTTP shard nodes behind a coordinator): every statement is checked
# against the reference engine, and the harness prints its result as the
# last line. Each workload's OK line echoes that line's alloc_mb_per_op,
# allocs_per_op and comparisons_per_op, so a CI log records their trend.
benchmark-smoke:
	@for w in chain_spill serve_http frames_inmem cluster_2shard; do \
		out="$$(bash benchmark/run.sh --workload $$w --seed 20120827 --seconds 3 --trace 0 | tail -n 1)"; \
		printf '%s\n' "$$out" | grep -q '"correct":true' && printf '%s\n' "$$out" | grep -q '"failed":0' \
			|| { echo "benchmark-smoke: $$w did not end correct with 0 failed: $$out" >&2; exit 1; }; \
		trend=""; \
		for m in alloc_mb_per_op allocs_per_op comparisons_per_op; do \
			trend="$$trend $$m=$$(printf '%s\n' "$$out" | sed -n "s/.*\"$$m\":{\"value\":\([^,}]*\).*/\1/p")"; \
		done; \
		echo "benchmark-smoke: $$w OK$$trend"; \
	done

# Run the HTTP query service (see cmd/windserve -h for knobs). Relocate
# with PORT=9090 or a full ADDR=host:9090, so two local instances — or a
# whole shard cluster — can coexist:
#
#	make serve PORT=8081 &
#	make serve PORT=8082 &
PORT ?=
ADDR ?= $(if $(PORT),:$(PORT),:8080)
serve:
	$(GO) run ./cmd/windserve -addr $(ADDR)

# Boot windserve on a scratch port, wait for /healthz, fire a handful of
# /query round trips and check /stats counted them. A serving smoke, not a
# measurement — `make benchmark-smoke` runs the served workload.
load-smoke: SMOKE_ADDR = 127.0.0.1:18091
load-smoke:
	@set -e; \
	$(GO) build -o /tmp/windserve-smoke ./cmd/windserve; \
	/tmp/windserve-smoke -addr $(SMOKE_ADDR) -rows 2000 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=0; \
	for i in $$(seq 1 100); do \
		if curl -sf http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "load-smoke: windserve never became healthy" >&2; exit 1; }; \
	for i in 1 2 3; do \
		curl -sf -X POST http://$(SMOKE_ADDR)/query \
			-d '{"sql":"SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales", "max_rows": 2}' \
			| grep -q '"row_count":2000' || { echo "load-smoke: bad /query response" >&2; exit 1; }; \
	done; \
	curl -sf 'http://$(SMOKE_ADDR)/query?q=SELECT%20empnum%20FROM%20emptab%20LIMIT%201' >/dev/null; \
	curl -sf http://$(SMOKE_ADDR)/stats | grep -q '"queries":4' || { echo "load-smoke: /stats miscounted" >&2; exit 1; }; \
	curl -s -o /dev/null -w '%{http_code}' http://$(SMOKE_ADDR)/query?q=nonsense | grep -q 400; \
	echo "load-smoke: OK"

# Boot two shard windserve processes, a coordinator over them and a
# reference single-engine instance on scratch ports; fire the sharded Q1
# query over HTTP through the coordinator and assert its row count matches
# the single engine's and the chain scattered across both shards; then fire
# a key-divergent chain (two segments with different PARTITION BY) and
# assert it executed with route=shuffle — the per-segment distributed path
# whose re-shuffled rows move node-to-node over the /shard/shuffle data
# plane — with the same row count as the single engine; then a keyless
# chain (an empty PARTITION BY), which must shuffle too — one segment, every
# row to the same node — with the single engine's row count, and /stats must
# know no "gather" route; then paper Q9, whose PARTITION-BY-less functions
# make a keyless segment beside keyed ones: it must shuffle with the single
# engine's row count, the nodes running the plan the coordinator shipped
# them. The two-process proof that scatter and shuffle both work over real
# sockets. Before any of it, the coordinator and the single engine must
# answer a list of requests with the same status — allowed and refused
# methods on /healthz, /stats, /metrics, /debug/queries, /debug/trace/,
# /append and /query — the one route table seen over real sockets.
#
# The observability plane rides the same boot: the coordinator must serve
# the required Prometheus metric families on /metrics, and it runs with
# -slowlog 1us so every query trips the slow-query log — one structured
# JSON line with the span tree must land on stderr.
#
# The ingestion plane rides it too: open a SUBSCRIBE stream with plain curl
# (?subscribe=1, NDJSON), wait for the full initial result (header + one
# tagged row per web_sales row), POST /append one row — the coordinator
# hash-routes it to the owning shard and assigns a watermark past the
# registration generation — and require the delta row to surface on the
# open stream tagged "append" at exactly that watermark. The subscription
# must list in /debug/queries and die to a DELETE by id.
#
# Finally the live-query plane, on a dedicated cluster whose web_sales is
# SMOKE_KILL_ROWS deep — sized so a streamed result cannot hide in
# loopback socket buffers, which keeps a throttled client's shuffle query
# genuinely in flight: the query must show up in the coordinator's
# /debug/queries with a merged shard-node subtree, DELETE by ID must kill
# it, and windowdb_queries_aborted_total must tick. (Its tables are pushed
# to the nodes as frame bodies over /shard/register; it gets its own
# longer health wait and its own small shard pair.)
cluster-smoke: SMOKE_KILL_ROWS = 120000
cluster-smoke: SMOKE_Q = SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales
cluster-smoke: SMOKE_DIVQ = SELECT ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a, rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales
cluster-smoke: SMOKE_KEYLESSQ = SELECT ws_order_number, rank() OVER (ORDER BY ws_sold_date_sk, ws_order_number) AS r FROM web_sales
cluster-smoke: SMOKE_Q9 = SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk, ws_sold_date_sk) AS r1, rank() OVER (PARTITION BY ws_item_sk, ws_sold_time_sk ORDER BY ws_sold_date_sk) AS r2, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r3, rank() OVER (ORDER BY ws_item_sk, ws_sold_date_sk) AS r4, rank() OVER (PARTITION BY ws_bill_customer_sk, ws_sold_date_sk ORDER BY ws_sold_time_sk) AS r5, rank() OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_time_sk) AS r6, rank() OVER (PARTITION BY ws_sold_date_sk, ws_sold_time_sk) AS r7, rank() OVER (ORDER BY ws_sold_time_sk) AS r8 FROM web_sales
cluster-smoke:
	@set -e; \
	$(GO) build -o /tmp/windserve-csmoke ./cmd/windserve; \
	/tmp/windserve-csmoke -shardnode -addr 127.0.0.1:18094 & s1=$$!; \
	/tmp/windserve-csmoke -shardnode -addr 127.0.0.1:18095 & s2=$$!; \
	/tmp/windserve-csmoke -addr 127.0.0.1:18096 -rows 2000 & se=$$!; \
	co=; trap 'kill $$s1 $$s2 $$se $$co 2>/dev/null' EXIT; \
	/tmp/windserve-csmoke -shards 127.0.0.1:18094,127.0.0.1:18095 -addr 127.0.0.1:18093 -rows 2000 -slowlog 1us 2>/tmp/windserve-csmoke-slow.log & co=$$!; \
	for url in 127.0.0.1:18093 127.0.0.1:18096; do \
		ok=0; \
		for i in $$(seq 1 150); do \
			if curl -sf http://$$url/healthz >/dev/null 2>&1; then ok=1; break; fi; \
			sleep 0.1; \
		done; \
		[ "$$ok" = 1 ] || { echo "cluster-smoke: $$url never became healthy" >&2; exit 1; }; \
	done; \
	for req in "GET /healthz" "POST /healthz" "GET /stats" "POST /stats" "GET /metrics" "POST /metrics" \
		"GET /debug/queries" "DELETE /debug/queries" "GET /debug/trace/" "GET /append" "PUT /query"; do \
		set -- $$req; \
		cs=$$(curl -s -o /dev/null -w '%{http_code}' -X $$1 http://127.0.0.1:18093$$2); \
		ss=$$(curl -s -o /dev/null -w '%{http_code}' -X $$1 http://127.0.0.1:18096$$2); \
		[ "$$cs" = "$$ss" ] || { echo "cluster-smoke: $$req answers $$cs on the coordinator, $$ss on the single engine" >&2; exit 1; }; \
	done; \
	echo "cluster-smoke: coordinator and single engine answer the route table alike"; \
	body='{"sql":"$(SMOKE_Q)","max_rows":1}'; \
	divbody='{"sql":"$(SMOKE_DIVQ)","max_rows":1}'; \
	keylessbody='{"sql":"$(SMOKE_KEYLESSQ)","max_rows":1}'; \
	q9body='{"sql":"$(SMOKE_Q9)","max_rows":1}'; \
	single=$$(curl -sf -X POST http://127.0.0.1:18096/query -d "$$body"); \
	sc=$$(printf '%s' "$$single" | grep -o '"row_count":[0-9]*'); \
	divsingle=$$(curl -sf -X POST http://127.0.0.1:18096/query -d "$$divbody"); \
	dsc=$$(printf '%s' "$$divsingle" | grep -o '"row_count":[0-9]*'); \
	ksc=$$(curl -sf -X POST http://127.0.0.1:18096/query -d "$$keylessbody" | grep -o '"row_count":[0-9]*'); \
	q9sc=$$(curl -sf -X POST http://127.0.0.1:18096/query -d "$$q9body" | grep -o '"row_count":[0-9]*'); \
	url=127.0.0.1:18093; \
	clustered=$$(curl -sf -X POST http://$$url/query -d "$$body"); \
	cc=$$(printf '%s' "$$clustered" | grep -o '"row_count":[0-9]*'); \
	[ -n "$$sc" ] && [ "$$sc" = "$$cc" ] || { echo "cluster-smoke: $$cc != single-engine $$sc" >&2; exit 1; }; \
	printf '%s' "$$clustered" | grep -q '"route":"scatter"' || { echo "cluster-smoke: not scattered" >&2; exit 1; }; \
	printf '%s' "$$clustered" | grep -q '"shards_used":2' || { echo "cluster-smoke: wrong shard count" >&2; exit 1; }; \
	divclustered=$$(curl -sf -X POST http://$$url/query -d "$$divbody"); \
	dcc=$$(printf '%s' "$$divclustered" | grep -o '"row_count":[0-9]*'); \
	[ -n "$$dsc" ] && [ "$$dsc" = "$$dcc" ] || { echo "cluster-smoke: divergent $$dcc != single-engine $$dsc" >&2; exit 1; }; \
	printf '%s' "$$divclustered" | grep -q '"route":"shuffle"' || { echo "cluster-smoke: key-divergent chain not shuffled" >&2; exit 1; }; \
	keyless=$$(curl -sf -X POST http://$$url/query -d "$$keylessbody"); \
	kcc=$$(printf '%s' "$$keyless" | grep -o '"row_count":[0-9]*'); \
	[ -n "$$ksc" ] && [ "$$ksc" = "$$kcc" ] || { echo "cluster-smoke: keyless $$kcc != single-engine $$ksc" >&2; exit 1; }; \
	printf '%s' "$$keyless" | grep -q '"route":"shuffle"' || { echo "cluster-smoke: keyless chain not shuffled" >&2; exit 1; }; \
	q9=$$(curl -sf -X POST http://$$url/query -d "$$q9body"); \
	q9cc=$$(printf '%s' "$$q9" | grep -o '"row_count":[0-9]*'); \
	[ -n "$$q9sc" ] && [ "$$q9sc" = "$$q9cc" ] || { echo "cluster-smoke: Q9 $$q9cc != single-engine $$q9sc" >&2; exit 1; }; \
	printf '%s' "$$q9" | grep -q '"route":"shuffle"' || { echo "cluster-smoke: Q9 not shuffled" >&2; exit 1; }; \
	stats=$$(curl -sf http://$$url/stats); \
	printf '%s' "$$stats" | grep -q '"shards":2' || { echo "cluster-smoke: /stats missing shards" >&2; exit 1; }; \
	printf '%s' "$$stats" | grep -q '"shuffle":3' || { echo "cluster-smoke: /stats missing shuffle count" >&2; exit 1; }; \
	if printf '%s' "$$stats" | grep -q '"gather"'; then echo "cluster-smoke: /stats still reports a gather route" >&2; exit 1; fi; \
	metrics=$$(curl -sf http://$$url/metrics); \
	for fam in windowdb_queries_total windowdb_route_queries_total windowdb_shard_queries_total windowdb_shards; do \
		printf '%s\n' "$$metrics" | grep -q "^$$fam" || { echo "cluster-smoke: /metrics missing family $$fam" >&2; exit 1; }; \
	done; \
	printf '%s\n' "$$metrics" | grep -q '^windowdb_shard_queries_total{shard="1"}' || { echo "cluster-smoke: /metrics missing per-shard labels" >&2; exit 1; }; \
	echo "cluster-smoke: OK ($$cc rows scattered, $$dcc rows shuffled, $$kcc rows shuffled to one node, Q9's $$q9cc shuffled on its shipped plan $$(printf '%s' "$$q9" | grep -o '"chain":"[^"]*"'))"; \
	curl -sf http://127.0.0.1:18096/metrics | grep -q '^windowdb_query_duration_seconds_bucket' || { echo "cluster-smoke: single engine /metrics missing latency histogram" >&2; exit 1; }; \
	grep -q '"kind":"slow_query"' /tmp/windserve-csmoke-slow.log || { echo "cluster-smoke: no slow-query log line from the coordinator" >&2; exit 1; }; \
	grep -q '"root":' /tmp/windserve-csmoke-slow.log || { echo "cluster-smoke: slow-query line carries no span tree" >&2; exit 1; }; \
	echo "cluster-smoke: /metrics families + slow-query log OK"; \
	sub=; trap 'kill $$s1 $$s2 $$se $$co $$sub 2>/dev/null || true' EXIT; \
	: > /tmp/windserve-csmoke-sub.log; \
	curl -sN -X POST 'http://127.0.0.1:18093/query?subscribe=1' -d '{"sql":"$(SMOKE_Q)"}' > /tmp/windserve-csmoke-sub.log & sub=$$!; \
	ok=0; \
	for i in $$(seq 1 300); do \
		if [ "$$(wc -l < /tmp/windserve-csmoke-sub.log)" -ge 2001 ]; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "cluster-smoke: subscription never delivered its initial result" >&2; exit 1; }; \
	grep -q '{"s":"init"},{"i":"1"}\]' /tmp/windserve-csmoke-sub.log || { echo "cluster-smoke: init rows missing op/watermark tags" >&2; exit 1; }; \
	appendresp=$$(curl -sf -X POST http://127.0.0.1:18093/append -d '{"table":"web_sales","rows":[[{"i":"2450001"},{"i":"1"},{"i":"2450002"},{"i":"1"},{"i":"1"},{"i":"1"},{"i":"5"},{"f":1.5},{"f":2.5},{"f":2.0},{"i":"999999"},{"s":"x"}]]}'); \
	printf '%s' "$$appendresp" | grep -q '"rows_appended":1' || { echo "cluster-smoke: /append rejected the routed batch: $$appendresp" >&2; exit 1; }; \
	wm=$$(printf '%s' "$$appendresp" | grep -o '"watermark":[0-9]*' | cut -d: -f2); \
	[ -n "$$wm" ] && [ "$$wm" -gt 1 ] || { echo "cluster-smoke: append watermark $$wm not past the registration generation" >&2; exit 1; }; \
	ok=0; \
	for i in $$(seq 1 100); do \
		if grep -q '{"s":"append"},{"i":"'$$wm'"}\]' /tmp/windserve-csmoke-sub.log; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "cluster-smoke: routed append never surfaced as a delta row at watermark $$wm" >&2; exit 1; }; \
	subq=$$(curl -sf http://127.0.0.1:18093/debug/queries); \
	printf '%s' "$$subq" | grep -q '"sql":"SUBSCRIBE' || { echo "cluster-smoke: live subscription absent from /debug/queries" >&2; exit 1; }; \
	sid=$$(printf '%s' "$$subq" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4); \
	curl -sf -X DELETE http://127.0.0.1:18093/debug/queries/$$sid | grep -q '"killed":true' || { echo "cluster-smoke: DELETE did not kill the subscription" >&2; exit 1; }; \
	wait $$sub 2>/dev/null || true; sub=; \
	echo "cluster-smoke: append routed to shards, delta pushed at watermark $$wm, subscription killed by id OK"; \
	/tmp/windserve-csmoke -shardnode -addr 127.0.0.1:18098 & s3=$$!; \
	/tmp/windserve-csmoke -shardnode -addr 127.0.0.1:18099 & s4=$$!; \
	qp=; trap 'kill $$s1 $$s2 $$se $$co $$s3 $$s4 $$ck $$qp 2>/dev/null || true' EXIT; \
	/tmp/windserve-csmoke -shards 127.0.0.1:18098,127.0.0.1:18099 -addr 127.0.0.1:18100 -rows $(SMOKE_KILL_ROWS) & ck=$$!; \
	ok=0; \
	for i in $$(seq 1 900); do \
		if curl -sf http://127.0.0.1:18100/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "cluster-smoke: kill-test coordinator never became healthy" >&2; exit 1; }; \
	curl -sN --limit-rate 1k -X POST http://127.0.0.1:18100/query -d "{\"sql\":\"$(SMOKE_DIVQ)\",\"stream\":true}" >/dev/null 2>&1 & qp=$$!; \
	qjson=; \
	for i in $$(seq 1 300); do \
		qjson=$$(curl -sf http://127.0.0.1:18100/debug/queries); \
		if printf '%s' "$$qjson" | grep -q '"nodes":\['; then break; fi; \
		qjson=; sleep 0.1; \
	done; \
	[ -n "$$qjson" ] || { echo "cluster-smoke: in-flight query never showed a shard-node subtree in /debug/queries" >&2; exit 1; }; \
	qid=$$(printf '%s' "$$qjson" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4); \
	[ -n "$$qid" ] || { echo "cluster-smoke: no query id in /debug/queries listing" >&2; exit 1; }; \
	curl -sf -X DELETE http://127.0.0.1:18100/debug/queries/$$qid | grep -q '"killed":true' || { echo "cluster-smoke: DELETE /debug/queries/$$qid did not kill" >&2; exit 1; }; \
	aborted=0; \
	for i in $$(seq 1 100); do \
		if curl -sf http://127.0.0.1:18100/metrics | grep -q '^windowdb_queries_aborted_total [1-9]'; then aborted=1; break; fi; \
		sleep 0.1; \
	done; \
	[ "$$aborted" = 1 ] || { echo "cluster-smoke: windowdb_queries_aborted_total never incremented after the kill" >&2; exit 1; }; \
	echo "cluster-smoke: live query listed with node subtree, killed by id, abort counted OK"

ci: build examples loc vet benchmark-check benchmark-smoke fmt-check race test-long bench load-smoke cluster-smoke
