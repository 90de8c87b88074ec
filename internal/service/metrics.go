package service

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/exec"
)

// latencyHist is a fixed exponential-bucket histogram: bucket i covers
// latencies up to base·growth^i. Quantiles are read as the upper bound of
// the bucket where the cumulative count crosses the rank — resolution is
// one growth factor (±25%), which is plenty for p50/p95/p99 serving
// dashboards and keeps observation lock-free-cheap and allocation-free.
type latencyHist struct {
	counts [histBuckets]uint64
	total  uint64
	// sum accumulates observed latency for the Prometheus histogram's
	// _sum series; quantile reads ignore it.
	sum time.Duration
}

const (
	histBuckets = 96
	histGrowth  = 1.25
)

var histBase = float64(time.Microsecond)

func histIndex(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	i := int(math.Log(float64(d)/histBase) / math.Log(histGrowth))
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

func histUpper(i int) time.Duration {
	return time.Duration(histBase * math.Pow(histGrowth, float64(i+1)))
}

func (h *latencyHist) observe(d time.Duration) {
	h.counts[histIndex(d)]++
	h.total++
	h.sum += d
}

// quantile returns the latency below which fraction q of observations fall.
func (h *latencyHist) quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			return histUpper(i)
		}
	}
	return histUpper(histBuckets - 1)
}

// Metrics aggregates service-level observability beside the Front's
// outcome counters: admission rejections, the in-flight gauge with its
// high-water mark, the latency histogram, and the per-query exec.Metrics
// sums (block I/O, comparisons).
type Metrics struct {
	start time.Time

	rejected atomic.Uint64 // of failures: ErrOverloaded rejections

	shuffleRounds atomic.Uint64 // executed shuffle stages (RunShuffleStep)

	appends      atomic.Uint64 // append batches applied (Service.Append)
	rowsAppended atomic.Uint64 // rows ingested across those batches

	inFlight    atomic.Int64 // executions currently holding a slot
	maxInFlight atomic.Int64 // high-water mark of inFlight

	mu            sync.Mutex
	hist          latencyHist
	blocksRead    int64
	blocksWritten int64
	comparisons   int64
	rowsOut       int64
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// beginExec marks an execution entering its slot, maintaining the
// high-water mark.
func (m *Metrics) beginExec() {
	n := m.inFlight.Add(1)
	for {
		max := m.maxInFlight.Load()
		if n <= max || m.maxInFlight.CompareAndSwap(max, n) {
			return
		}
	}
}

func (m *Metrics) endExec() { m.inFlight.Add(-1) }

// observe records one served query: its end-to-end latency, the rows it
// yielded — at stream end, so the rows actually delivered, not the rows
// the statement could have produced — and the executor's metrics.
func (m *Metrics) observe(execM *exec.Metrics, rowsOut int64, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hist.observe(d)
	if execM != nil {
		m.blocksRead += execM.BlocksRead
		m.blocksWritten += execM.BlocksWritten
		m.comparisons += execM.Comparisons
	}
	m.rowsOut += rowsOut
}

// Snapshot is a point-in-time view of the service counters, shaped for the
// /stats JSON endpoint. Latency quantiles are histogram upper bounds.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Queries       uint64  `json:"queries"`
	Failures      uint64  `json:"failures"`
	Rejected      uint64  `json:"rejected"`
	// Aborted counts streamed queries whose cursor was closed before the
	// last row — client disconnects and deliberate truncations. They are
	// neither successes nor failures and contribute no latency sample.
	Aborted uint64  `json:"aborted"`
	QPS     float64 `json:"qps"`
	// ShuffleRounds counts the shuffle stages this node executed for a
	// cluster coordinator's per-segment distributed chains (each stage is a
	// slot-holding chain-segment execution, not a query).
	ShuffleRounds uint64 `json:"shuffle_rounds"`
	// Appends counts applied append batches (INSERT statements and /append
	// bodies); RowsAppended is the rows they ingested.
	Appends      uint64 `json:"appends"`
	RowsAppended uint64 `json:"rows_appended"`

	InFlight    int64 `json:"in_flight"`
	MaxInFlight int64 `json:"max_in_flight"`
	Slots       int   `json:"slots"`
	MaxQueue    int   `json:"max_queue"` // bound on QueueDepth
	QueueDepth  int64 `json:"queue_depth"`
	// LiveQueries is the in-flight query registry's size (GET
	// /debug/queries lists the entries).
	LiveQueries int `json:"live_queries"`
	// Subscriptions counts the engine's live SUBSCRIBE deliveries, and
	// ShuffleBuffered the shuffle rounds buffered in the node's inbox.
	Subscriptions   int `json:"subscriptions"`
	ShuffleBuffered int `json:"shuffle_buffered"`

	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`

	// Cache is the plan cache snapshot; Subplans the shared-subplan cache's
	// (zero when sharing is disabled).
	Cache    cache.Stats `json:"cache"`
	Subplans cache.Stats `json:"subplans"`

	BlocksRead    int64 `json:"blocks_read"`
	BlocksWritten int64 `json:"blocks_written"`
	Comparisons   int64 `json:"comparisons"`
	RowsOut       int64 `json:"rows_out"`
}

// Held names what statements in flight hold on the service — admission
// slots, queued waiters, registry entries, subscriptions, buffered shuffle
// rounds — and is "" when it holds nothing. A statement hands all of it
// back before its end returns, so "" is what every test reads once the
// statements it ran have ended, without waiting.
func (s Snapshot) Held() string {
	var held []string
	for _, h := range []struct {
		n    int64
		what string
	}{
		{s.InFlight, "admission slots"},
		{s.QueueDepth, "queued"},
		{int64(s.LiveQueries), "registry entries"},
		{int64(s.Subscriptions), "subscriptions"},
		{int64(s.ShuffleBuffered), "buffered shuffle rounds"},
	} {
		if h.n != 0 {
			held = append(held, fmt.Sprintf("%d %s", h.n, h.what))
		}
	}
	return strings.Join(held, ", ")
}

// snapshot reads the counters, with the statement outcomes f counted.
func (m *Metrics) snapshot(f *Front) Snapshot {
	up := time.Since(m.start).Seconds()
	s := Snapshot{
		UptimeSeconds: up,
		Queries:       f.Queries.Load(),
		Failures:      f.Failures.Load(),
		Rejected:      m.rejected.Load(),
		Aborted:       f.Aborted.Load(),
		ShuffleRounds: m.shuffleRounds.Load(),
		Appends:       m.appends.Load(),
		RowsAppended:  m.rowsAppended.Load(),
		InFlight:      m.inFlight.Load(),
		MaxInFlight:   m.maxInFlight.Load(),
	}
	if up > 0 {
		s.QPS = float64(s.Queries) / up
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s.P50Millis = float64(m.hist.quantile(0.50)) / float64(time.Millisecond)
	s.P95Millis = float64(m.hist.quantile(0.95)) / float64(time.Millisecond)
	s.P99Millis = float64(m.hist.quantile(0.99)) / float64(time.Millisecond)
	s.BlocksRead = m.blocksRead
	s.BlocksWritten = m.blocksWritten
	s.Comparisons = m.comparisons
	s.RowsOut = m.rowsOut
	return s
}

// histSnapshot copies the latency histogram's raw buckets for the
// Prometheus exposition (cumulative buckets, _sum and _count).
func (m *Metrics) histSnapshot() latencyHist {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hist
}
