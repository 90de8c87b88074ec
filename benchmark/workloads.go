package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/trace"
)

// sizes are the knobs a builder may tune; the statement lists are not.
// They were probed on a 2-core sandbox with the default seed so that 12 s
// of the timed loop collect at least 100 query samples on the four query
// workloads, and are recorded in every result so `compare` can refuse
// outputs taken at different sizes.
type sizes struct {
	// Rows is the base web_sales row count.
	Rows int `json:"rows"`
	// SampleRows sizes the table window.Reference is evaluated on.
	SampleRows int `json:"sample_rows"`
	// SetupReps is how many times a run sets the system up; setup_s is the
	// fastest.
	SetupReps int `json:"setup_reps"`
	// LadderReps is the number of replays behind every per-layer median.
	LadderReps int `json:"ladder_reps"`
	// append_subscribe: an epoch is EpochOps operations on a fresh engine,
	// every QueryEvery-th a full Q6 and the rest appends of BatchRows rows
	// drawn from HotItems item keys.
	EpochOps   int `json:"epoch_ops,omitempty"`
	QueryEvery int `json:"query_every,omitempty"`
	BatchRows  int `json:"batch_rows,omitempty"`
	HotItems   int `json:"hot_items,omitempty"`
}

func defaultSizes(workload string) sizes {
	sz := sizes{Rows: 40_000, SampleRows: 2_000, SetupReps: 10, LadderReps: 5}
	switch workload {
	case "chain_spill":
		// 16 000 rows = 295 blocks, M = 10 blocks: the same sub-threshold
		// merge regime as 40 000 rows at M = 16, at a round short enough
		// for 15 rounds (105 operations) in 12 s.
		sz.Rows = 16_000
	case "serve_http":
		sz.Rows = 20_000
	case "append_subscribe":
		// 45 appends and 5 full queries per epoch: an odd number of query
		// points keeps the median inside one table size, not between two.
		sz.EpochOps, sz.QueryEvery, sz.BatchRows, sz.HotItems = 50, 10, 500, 16
		sz.SetupReps = 3 // a set-up includes a whole warm-up epoch here
	}
	return sz
}

// opKind separates the two operation types a workload may issue.
type opKind uint8

const (
	opQuery opKind = iota
	opAppend
)

// sample is one finished operation.
type sample struct {
	Seq     int // operation number in the fixed cycle
	Kind    opKind
	Stmt    int     // index into the workload's statements
	Slot    int     // append_subscribe: position inside the epoch
	Ms      float64 // issue → last row drained (append: → last delta row read)
	CallMs  float64 // append: the Engine.Append call alone
	Rows    int64
	Sum     uint64 // order-insensitive checksum, checked operations only
	Checked bool
	Blocks  int64
	Cmps    int64
	Queued  float64 // ms waiting for an admission slot
	Start   time.Time
	End     time.Time
	EndCPU  float64     // process user+sys CPU, ms, when the operation completed
	Public  *trace.Span // the span tree the backend already publishes
	Err     error
}

// sut is one set-up system under test.
type sut struct {
	wl      string
	sz      sizes
	stmts   []statement
	clients int
	q       windowdb.Queryer
	// eng is the engine whose rungs the ladder measures: the embedded
	// engine, or the one behind the service. Nil on the cluster, whose
	// engines live behind HTTP.
	eng     *windowdb.Engine
	svc     *service.Service
	cluster *shard.Cluster
	tables  map[string]*storage.Table
	app     *appendState
	closers []func()
}

func (s *sut) close() {
	if s.app != nil {
		s.app.endEpoch()
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// roundOps is the length of the fixed operation cycle: every metric is
// taken over whole cycles so per-operation counts repeat exactly.
func (s *sut) roundOps() int {
	if s.app != nil {
		return s.sz.EpochOps
	}
	return len(s.stmts)
}

// setup builds the named workload's system from scratch: fixture
// generation, registration, server start. The warm-up round is the
// caller's (it needs the checked-operation path).
func setup(ctx context.Context, wl string, sz sizes, seed int64) (*sut, error) {
	gen := genConfig(sz.Rows, seed)
	s := &sut{wl: wl, sz: sz, clients: 1, tables: map[string]*storage.Table{"web_sales": datagen.WebSales(gen)}}
	ws := s.tables["web_sales"]
	switch wl {
	case "chain_spill":
		s.stmts = chainStatements()
		s.eng = windowdb.New(windowdb.Config{SortMemBytes: spillMemBytes(ws), BlockSize: blockSize, Parallelism: 1})
		s.eng.Register("web_sales", ws)
		s.q = s.eng
	case "frames_inmem":
		s.stmts = frameStatements()
		s.eng = windowdb.New(windowdb.Config{SortMemBytes: 256 << 20, BlockSize: blockSize, Parallelism: 1})
		s.eng.Register("web_sales", ws)
		s.q = s.eng
	case "serve_http":
		s.stmts = serveStatements()
		s.tables["web_sales_s"] = datagen.WebSalesSorted(gen)
		s.tables["web_sales_g"] = datagen.WebSalesGrouped(gen)
		// Concurrency comes from the clients, one per core, never more:
		// a closed loop with more clients than cores measures the
		// scheduler.
		s.clients = runtime.GOMAXPROCS(0)
		s.eng = windowdb.New(windowdb.Config{SortMemBytes: 8 << 20, BlockSize: blockSize, Parallelism: 1})
		for name, t := range s.tables {
			s.eng.Register(name, t)
		}
		s.svc = service.New(s.eng, service.Config{Slots: s.clients, MaxQueue: 1024})
		srv := httptest.NewServer(s.svc.Handler())
		s.closers = append(s.closers, srv.Close)
		s.q = service.NewClientCodec(srv.URL, srv.Client(), service.CodecBinary)
	case "cluster_2shard":
		s.stmts = clusterStatements()
		engCfg := windowdb.Config{SortMemBytes: 64 << 20, BlockSize: blockSize, Parallelism: 1}
		transports := make([]shard.Transport, 2)
		for i := range transports {
			node := service.New(windowdb.New(engCfg), service.Config{Slots: 1, ShardRoutes: true})
			srv := httptest.NewServer(node.Handler())
			s.closers = append(s.closers, srv.Close)
			transports[i] = shard.NewHTTPCodec(srv.URL, srv.Client(), service.CodecBinary)
		}
		c, err := shard.New(shard.Config{Engine: engCfg}, transports)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("cluster: %w", err)
		}
		if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
			s.close()
			return nil, fmt.Errorf("cluster register: %w", err)
		}
		s.cluster, s.q = c, c
	case "append_subscribe":
		s.stmts = []statement{{ID: "Q6", Table: "web_sales", SQL: sqlQ6Sub}}
		s.app = &appendState{sz: sz, gen: gen, seed: seed, base: ws}
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	return s, nil
}

// drain runs one statement through q to its last row. With check set it
// also folds every row into the order-insensitive checksum.
func drain(ctx context.Context, q windowdb.Queryer, sql string, check bool) sample {
	sm := sample{Kind: opQuery, Checked: check, Start: time.Now()}
	rows, err := q.QueryContext(ctx, sql)
	if err != nil {
		sm.Err = err
		sm.Ms = msSince(sm.Start)
		return sm
	}
	for rows.Next() {
		sm.Rows++
		if check {
			sm.Sum += hashRow(rows.Row())
		}
	}
	sm.Err = rows.Err()
	sm.Ms = msSince(sm.Start)
	if m := rows.Metrics(); m != nil {
		sm.Blocks = m.BlocksRead + m.BlocksWritten
		sm.Cmps = m.Comparisons
		sm.Queued = trace.Millis(m.Queued)
		if check {
			sm.Public = m.Trace // kept for the trace file; the timed loop has no use for it
		}
	}
	return sm
}

func msSince(t time.Time) float64 { return trace.Millis(time.Since(t)) }

// op runs the i-th operation of the fixed cycle.
func (s *sut) op(ctx context.Context, i int, check bool) sample {
	if s.app != nil {
		return s.app.op(ctx, i, check)
	}
	k := i % len(s.stmts)
	sm := drain(ctx, s.q, s.stmts[k].SQL, check)
	sm.Stmt = k
	return sm
}

// loop is what one closed-loop run produced: the samples of its whole
// cycles in operation order, and where the clock and the process CPU time
// stood when it began.
type loop struct {
	samples []sample
	per     int // operations per cycle
	wall    time.Duration
	// wallMs and cpuMs are each cycle's wall time and process CPU time:
	// the loop cut where every cycle's last operation completed. With one
	// client such a slice is exactly one cycle; with several, cycles
	// overlap and a slice is the time between two such completions, which
	// still covers one cycle's worth of operations on average.
	wallMs, cpuMs []float64
}

// run is the closed loop: s.clients callers each issue their next
// operation only after the previous one completed, taking operation
// numbers from one shared counter so the mix stays the fixed round-robin.
// It stops at the first whole number of cycles on or after the deadline
// (or after exactly `cycles` cycles when cycles > 0).
func (s *sut) run(ctx context.Context, deadline time.Time, cycles int, check bool) loop {
	per := s.roundOps()
	var next, limit atomic.Int64
	limit.Store(1 << 62)
	if cycles > 0 {
		limit.Store(int64(cycles * per))
	}
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	l := loop{per: per}
	start := time.Now()
	startCPU, _ := rusage()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				i := next.Add(1) - 1
				if i >= limit.Load() {
					break
				}
				sm := s.op(ctx, int(i), check)
				sm.Seq, sm.End = int(i), time.Now()
				sm.EndCPU, _ = rusage()
				mine = append(mine, sm)
				if cycles <= 0 && !sm.End.Before(deadline) {
					issued := next.Load()
					limit.CompareAndSwap(1<<62, (issued+int64(per)-1)/int64(per)*int64(per))
				}
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	l.wall = time.Since(start)
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	l.samples = out[:len(out)/per*per]
	at, cpu := start, startCPU
	for _, sm := range l.samples {
		if (sm.Seq+1)%per == 0 {
			l.wallMs = append(l.wallMs, trace.Millis(sm.End.Sub(at)))
			l.cpuMs = append(l.cpuMs, sm.EndCPU-cpu)
			at, cpu = sm.End, sm.EndCPU
		}
	}
	return l
}

// extend appends another run of the same system to l, renumbering its
// operations to follow l's.
func (l *loop) extend(more loop) {
	base := len(l.samples)
	for _, sm := range more.samples {
		sm.Seq += base
		l.samples = append(l.samples, sm)
	}
	l.per = more.per
	l.wall += more.wall
	l.wallMs = append(l.wallMs, more.wallMs...)
	l.cpuMs = append(l.cpuMs, more.cpuMs...)
}

// latencies returns kind's latencies over every cycle of the loop,
// ascending: the pool the reported percentiles are taken from.
func (l loop) latencies(kind opKind) []float64 {
	var ms []float64
	for _, sm := range l.samples {
		if sm.Kind == kind {
			ms = append(ms, sm.Ms)
		}
	}
	sort.Float64s(ms)
	return ms
}

// serviceStats snapshots the service's counters (zero without a service).
func (s *sut) serviceStats() service.Snapshot {
	if s.svc == nil {
		return service.Snapshot{}
	}
	return s.svc.Stats()
}

// topRung names the call the workload's operations go through: the top of
// its ladder.
func (s *sut) topRung() string {
	switch {
	case s.cluster != nil:
		return "cluster.query"
	case s.svc != nil:
		return "client.query"
	case s.app != nil:
		return "append_subscribe.op"
	}
	return "windowdb.query"
}

// stmtID labels an operation for the trace file.
func (s *sut) stmtID(sm sample) string {
	if sm.Kind == opAppend {
		return "append"
	}
	return s.stmts[sm.Stmt].ID
}

// perStatementMedian is what one operation of the cycle takes: the mean,
// over the positions of the fixed cycle, of that position's median
// latency across the cycles run.
func (l loop) perStatementMedian() float64 {
	per := l.per
	byPos := make([][]float64, per)
	for _, sm := range l.samples {
		byPos[sm.Seq%per] = append(byPos[sm.Seq%per], sm.Ms)
	}
	medians := make([]float64, 0, per)
	for _, ms := range byPos {
		medians = append(medians, median(ms))
	}
	return mean(medians)
}
