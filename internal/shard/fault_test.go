package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	windowdb "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pagestore"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Fault schedules: what can go wrong with one statement over a sharded
// table, played by faultTransport — a wrapper over every node's transport —
// and by the caller's own drain. TestGeneratedStatements draws one seeded
// schedule per generated statement. Whatever a schedule does, the statement
// ends with the oracle's rows or a typed error, is counted exactly once,
// and has handed back everything it held before its end returned.

// errInjected is what a schedule's failures fail with.
var errInjected = errors.New("shard: injected fault")

// fault is what a schedule does to its statement.
type fault int

const (
	noFault     fault = iota
	failOpen          // the node's at-th stream open fails
	cutStream         // the node's stream fails at its at-th batch pull: cut mid-stream
	failRun           // the node's at-th stage before the last fails before it runs
	failBarrier       // the node's at-th stage before the last fails after it ran and delivered
	refuse            // the at-th delivery into the node's inbox is refused
	duplicate         // the at-th delivery into the node's inbox arrives twice
	reorder           // the at-th delivery into the node's inbox lands after its round's others
	cutBody           // the at-th delivery into the node's inbox arrives cut at a seeded offset
	corruptPlan       // the at-th stage the node is sent carries a plan that does not bind
	kill              // the coordinator's kill fires at the node's at-th call, which goes on
	stall             // the node's at-th call stalls until the statement is killed
	deadline          // the statement's deadline passes at the node's at-th call, which goes on
	closeEarly        // the caller closes the cursor after at rows
	cancelDrain       // the caller cancels its context after at rows
	faults
)

var faultNames = [faults]string{
	"none", "fail open", "cut stream", "fail run", "fail barrier", "refuse",
	"duplicate", "reorder", "cut body", "corrupt plan", "kill", "stall", "deadline", "close early",
	"cancel drain",
}

func (f fault) String() string { return faultNames[f] }

// schedule is one statement's fault: what, on which node, at which of the
// node's calls the fault counts — or, for the caller's own endings, after
// how many rows.
type schedule struct {
	fault fault
	node  int
	at    int64
	nodes int   // the cluster's width: every round delivers this many batches into each node
	cut   int64 // cutBody: the seed of where the body is cut (cutAt)
	// kill fires the coordinator's kill switch for the statement and expire
	// passes its deadline; stalled, when set, is closed once the stall has
	// begun.
	kill, expire func()
	stalled      chan struct{}
	// parked, when set, is closed once the node's stream has entered its
	// End, which then waits until park is closed: a node still letting go.
	parked, park chan struct{}

	calls atomic.Int64
	fired atomic.Bool

	mu     sync.Mutex
	landed map[int]int // reorder: deliveries of each round that landed in the node's inbox
	cond   *sync.Cond
}

// newSchedule draws a schedule over a cluster of nodes for a statement of
// rows output rows: no fault a third of the time.
func newSchedule(rng *rand.Rand, nodes, rows int) *schedule {
	s := &schedule{node: rng.Intn(nodes), at: int64(rng.Intn(2)), nodes: nodes}
	if rng.Intn(3) > 0 {
		s.fault = fault(1 + rng.Intn(int(faults)-1))
	}
	switch s.fault {
	case closeEarly, cancelDrain:
		s.at = int64(rng.Intn(rows + 1))
	case cutBody:
		s.cut = rng.Int63()
	}
	return s
}

func (s *schedule) String() string {
	if s.fault == closeEarly || s.fault == cancelDrain {
		return fmt.Sprintf("%s after %d rows", s.fault, s.at)
	}
	return fmt.Sprintf("%s at node %d's call %d", s.fault, s.node, s.at)
}

// on reports whether f fires at this call of node's: the at-th of the
// node's calls that f counts, when f is the schedule's fault.
func (s *schedule) on(f fault, node int) bool {
	if s == nil || s.fault != f || s.node != node || s.calls.Add(1)-1 != s.at {
		return false
	}
	s.fired.Store(true)
	return true
}

// call plays kill, stall and deadline at one of node's calls: the kill
// fires, or the deadline passes, and the call goes on under its ended
// context, or the call stalls until the statement is killed.
func (s *schedule) call(ctx context.Context, node int) error {
	switch {
	case s.on(kill, node):
		s.kill()
	case s.on(deadline, node):
		s.expire()
	case s.on(stall, node):
		if s.stalled != nil {
			close(s.stalled)
		}
		if s.kill != nil {
			s.kill()
		}
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// faultTransport plays the schedule in sched on one node's transport; with
// no schedule loaded every call passes through.
type faultTransport struct {
	Transport
	node  int
	sched *atomic.Pointer[schedule]
}

// faultCluster builds an n-node in-process cluster whose nodes, served
// with the given config, play the schedule stored in the returned pointer;
// web_sales of rows rows is sharded on ws_item_sk unless rows is 0.
func faultCluster(t *testing.T, n, rows int, node service.Config) (*Cluster, *atomic.Pointer[schedule]) {
	t.Helper()
	nodes := make([]Transport, n)
	for i := range nodes {
		nodes[i] = NewLocal(service.New(windowdb.New(testEngineConfig()), node))
	}
	return faultClusterOver(t, rows, nodes)
}

// faultClusterOver is faultCluster over the given node transports.
func faultClusterOver(t *testing.T, rows int, nodes []Transport) (*Cluster, *atomic.Pointer[schedule]) {
	t.Helper()
	sched := &atomic.Pointer[schedule]{}
	shards := make([]Transport, len(nodes))
	for i, node := range nodes {
		ft := &faultTransport{Transport: node, node: i, sched: sched}
		shards[i] = ft
		if a, ok := node.(interface{ Addr() string }); ok {
			shards[i] = addressed{ft, a.Addr()}
		}
	}
	c, err := New(Config{Engine: testEngineConfig()}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if rows > 0 {
		ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7})
		if err := c.RegisterSharded(context.Background(), "web_sales", ws, "ws_item_sk"); err != nil {
			t.Fatal(err)
		}
	}
	return c, sched
}

// addressed is a faultTransport over a node with an address, which its
// peers deliver to directly, past the coordinator's transports.
type addressed struct {
	*faultTransport
	addr string
}

func (a addressed) Addr() string { return a.addr }

func (ft *faultTransport) QueryStream(ctx context.Context, req service.ShardQueryRequest) (*windowdb.Rows, error) {
	s := ft.sched.Load()
	if err := s.call(ctx, ft.node); err != nil {
		return nil, err
	}
	if s.on(failOpen, ft.node) {
		return nil, errInjected
	}
	if req.Plan != nil && s.on(corruptPlan, ft.node) {
		req.Plan = corrupted(req.Plan)
	}
	rows, err := ft.Transport.QueryStream(ctx, req)
	if err != nil || s == nil || s.node != ft.node {
		return rows, err
	}
	return windowdb.NewRows(&faultSource{inner: rows, ctx: ctx, node: ft.node, s: s}), nil
}

func (ft *faultTransport) ShuffleRun(ctx context.Context, req service.ShuffleRunRequest) (*service.ShuffleRunResult, error) {
	s := ft.sched.Load()
	if err := s.call(ctx, ft.node); err != nil {
		return nil, err
	}
	if s.on(failRun, ft.node) {
		return nil, errInjected
	}
	if req.Plan != nil && s.on(corruptPlan, ft.node) {
		req.Plan = corrupted(req.Plan)
	}
	res, err := ft.Transport.ShuffleRun(ctx, req)
	if err == nil && s.on(failBarrier, ft.node) {
		return nil, errInjected
	}
	return res, err
}

func (ft *faultTransport) AcceptShuffle(ctx context.Context, b *service.ShuffleBatch) error {
	s := ft.sched.Load()
	if err := s.call(ctx, ft.node); err != nil {
		return err
	}
	switch {
	case s.on(refuse, ft.node):
		return errInjected
	case s.on(duplicate, ft.node):
		if err := ft.Transport.AcceptShuffle(ctx, b); err != nil {
			return err
		}
	case s.on(reorder, ft.node):
		s.await(b.Round, s.nodes-1)
	case s.on(cutBody, ft.node):
		cut := *b
		cut.Body = b.Body[:cutAt(b.Body, s.cut)]
		b = &cut
	}
	err := ft.Transport.AcceptShuffle(ctx, b)
	if s != nil && s.fault == reorder && s.node == ft.node {
		s.await(b.Round, 0)
	}
	return err
}

// await counts a delivery of round that landed (n = 0), or waits until n
// of them have: the reorder fault's held delivery waits for its round's
// others, every one of which lands — the coordinator runs a round's stages
// on all nodes at once.
func (s *schedule) await(round, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cond == nil {
		s.cond, s.landed = sync.NewCond(&s.mu), map[int]int{}
	}
	if n == 0 {
		s.landed[round]++
		s.cond.Broadcast()
	}
	for s.landed[round] < n {
		s.cond.Wait()
	}
}

// cutAt is where a cutBody fault with the given seed cuts a frame body:
// inside its header frame, inside one of its batch frames, at one of the
// frame boundaries after the header, or inside its trailer frame. A body
// without a batch — a peer's empty partition — is cut at a boundary
// instead of in a batch.
func cutAt(body []byte, seed int64) int {
	var starts []int // every frame's offset: header, batches, trailer
	for at := len(stream.FrameMagic); at < len(body); at += 5 + int(binary.LittleEndian.Uint32(body[at+1:])) {
		starts = append(starts, at)
	}
	ends := append(starts[1:], len(body))
	rng := rand.New(rand.NewSource(seed))
	inside := func(frame int) int { return starts[frame] + 1 + rng.Intn(ends[frame]-starts[frame]-1) }
	switch last := len(starts) - 1; rng.Intn(4) {
	case 0:
		return inside(0)
	case 1:
		if last > 1 {
			return inside(1 + rng.Intn(last-1))
		}
	case 3:
		return inside(last)
	}
	return starts[1+rng.Intn(len(starts)-1)]
}

// corrupted is a copy of plan missing its last step: one that does not bind.
func corrupted(plan *core.Plan) *core.Plan {
	p := *plan
	p.Steps = p.Steps[:len(p.Steps)-1]
	return &p
}

// faultSource plays the schedule at the batch pulls of one node stream.
type faultSource struct {
	inner *windowdb.Rows
	ctx   context.Context
	node  int
	s     *schedule
}

func (fs *faultSource) Columns() []storage.Column { return fs.inner.ColumnTypes() }

func (fs *faultSource) NextBatch() (*stream.Batch, error) {
	if err := fs.s.call(fs.ctx, fs.node); err != nil {
		return nil, err
	}
	if fs.s.on(cutStream, fs.node) {
		return nil, errInjected
	}
	b, ok := fs.inner.NextBatch()
	if !ok {
		if err := fs.inner.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	return b, nil
}

func (fs *faultSource) End(windowdb.Ending) *windowdb.QueryMetrics {
	if fs.s.parked != nil {
		close(fs.s.parked)
		<-fs.s.park
	}
	_ = fs.inner.Close()
	return fs.inner.Metrics()
}

// outcome is a statement's ending as the coordinator counted it: the
// change in its served, aborted and failed counters.
type outcome [3]uint64

var (
	served  = outcome{1, 0, 0}
	aborted = outcome{0, 1, 0}
	failed  = outcome{0, 0, 1}
)

func (o outcome) String() string {
	switch o {
	case served:
		return "served"
	case aborted:
		return "aborted"
	case failed:
		return "failed"
	}
	return fmt.Sprintf("counted %v (served, aborted, failed)", [3]uint64(o))
}

func (c *Cluster) outcomes() outcome {
	return outcome{c.queries.Load(), c.aborted.Load(), c.failures.Load()}
}

// ending is how one scheduled statement ended.
type ending struct {
	rows    []storage.Tuple
	meta    *windowdb.QueryMetrics
	err     error
	counted outcome
}

// play runs src on a cluster built by faultCluster under sc, drains it as
// sc says, and returns how it ended.
func play(c *Cluster, sched *atomic.Pointer[schedule], sc *schedule, src string) ending {
	// A kill names the statement by the trace ID it is registered under.
	id := trace.NewID()
	due := newExpiring(trace.NewContext(context.Background(), id))
	ctx, cancel := context.WithCancel(due)
	defer cancel()
	sc.kill, sc.expire = func() { c.Registry().Kill(id) }, due.expire
	sched.Store(sc)
	defer sched.Store(nil)

	before := c.outcomes()
	var e ending
	rows, err := c.QueryContext(ctx, src)
	if err == nil {
		for {
			if int64(len(e.rows)) == sc.at {
				switch sc.fault {
				case closeEarly:
					sc.fired.Store(true)
					_ = rows.Close()
				case cancelDrain:
					sc.fired.Store(true)
					cancel()
				}
			}
			if !rows.Next() {
				break
			}
			e.rows = append(e.rows, rows.Row())
		}
		err = rows.Err()
		_ = rows.Close()
		e.meta = rows.Metrics()
	}
	e.err = err
	after := c.outcomes()
	for i := range after {
		e.counted[i] = after[i] - before[i]
	}
	return e
}

// check holds an ending to what its schedule allows: a fault that fired
// ends the statement as the fault says, with the fault's typed error, and
// rows that end without an error are the oracle's — oracle gives its
// verdict on them.
func (sc *schedule) check(e ending, oracle func([]storage.Tuple) error) error {
	f := noFault
	if sc.fired.Load() {
		f = sc.fault
	}
	want, wantErr := served, error(nil)
	switch f {
	case failOpen, cutStream, failRun, failBarrier, refuse:
		want, wantErr = failed, errInjected
	case duplicate, cutBody, corruptPlan:
		want, wantErr = failed, service.ErrRefused
	case kill, stall, closeEarly:
		want, wantErr = aborted, context.Canceled
	case cancelDrain:
		// A cancel that no pull after it looks at leaves a served result.
		if e.counted != served {
			want, wantErr = aborted, context.Canceled
		}
	case deadline:
		// So does a deadline no step after it looks at.
		if e.counted != served {
			want, wantErr = failed, context.DeadlineExceeded
		}
	}
	switch {
	case e.counted != want:
		return fmt.Errorf("%v, want %v (err %v)", e.counted, want, e.err)
	case e.err != nil && !errors.Is(e.err, wantErr):
		return fmt.Errorf("ended with %v, want %v", e.err, wantErr)
	case e.err == nil && want == failed, e.err == nil && f == stall:
		return errors.New("ended without an error")
	case e.err == nil && f != closeEarly:
		// Rows that came without an error are all the oracle's — a kill's
		// too, when it landed after the last row.
		return oracle(e.rows)
	}
	return nil
}

// expiring is a statement's deadline as a schedule keeps it: it passes
// when expire is called — Done closes, Err is context.DeadlineExceeded —
// not when a clock says so. A context derived from it learns through
// AfterFunc, so no goroutine waits on it.
type expiring struct {
	context.Context // the values; never done itself
	done            chan struct{}

	mu    sync.Mutex
	err   error
	after map[*func()]bool
}

func newExpiring(parent context.Context) *expiring {
	return &expiring{Context: parent, done: make(chan struct{}), after: map[*func()]bool{}}
}

func (e *expiring) Done() <-chan struct{} { return e.done }

func (e *expiring) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

func (e *expiring) expire() {
	e.mu.Lock()
	if e.err != nil {
		e.mu.Unlock()
		return
	}
	e.err = context.DeadlineExceeded
	close(e.done)
	after := e.after
	e.after = nil
	e.mu.Unlock()
	for f := range after {
		(*f)()
	}
}

// AfterFunc runs f once the deadline has passed, unless stop comes first.
// The context package calls it holding a lock f takes, so f never runs on
// the caller's goroutine.
func (e *expiring) AfterFunc(f func()) (stop func() bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		go f()
		return func() bool { return false }
	}
	e.after[&f] = true
	return func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		registered := e.after[&f]
		delete(e.after, &f)
		return registered
	}
}

// baseline is what the process holds between statements: goroutines
// parked in this module's code besides the caller's, and spill blocks taken
// from the pool.
type baseline struct {
	goroutines []string // their stacks
	blocks     int64
}

func takeBaseline() baseline {
	buf := make([]byte, 64<<10)
	for n := runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	b := baseline{}
	// The caller's own stack comes first; a finalizer or a runtime helper
	// runs no code of this module, and a goroutine that has just signalled
	// the WaitGroup its spawner waits on may still be runnable on its way
	// out — one a statement leaks is parked.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		state, _, _ := strings.Cut(g, "]")
		if strings.Contains(g, "repro/") && !strings.HasSuffix(state, "[runnable") && !strings.HasSuffix(state, "[running") {
			b.goroutines = append(b.goroutines, g)
		}
	}
	_, b.blocks = pagestore.PoolCounters()
	return b
}

// requireIdle fails t unless the cluster holds nothing for a statement: no
// coordinator registry entry, and on no node an admission slot, a queued
// waiter, a registry entry, a subscription or a buffered shuffle round. A
// statement hands all of it back before its end returns, so this is read
// at once, never waited for.
func requireIdle(t *testing.T, c *Cluster) {
	t.Helper()
	if err := idle(c); err != nil {
		t.Fatal(err)
	}
}

// idle is requireIdle's check, as an error.
func idle(c *Cluster) error {
	st, err := c.Stats(context.Background())
	if err != nil {
		return err
	}
	if held := st.Held(); held != "" {
		return fmt.Errorf("held after the statement ended: %s", held)
	}
	return nil
}

// released is idle, and the process holds no more goroutines and no other
// spill blocks than at base.
func released(c *Cluster, base baseline) error {
	if err := idle(c); err != nil {
		return err
	}
	if now := takeBaseline(); len(now.goroutines) > len(base.goroutines) || now.blocks != base.blocks {
		return fmt.Errorf("%d goroutines and %d spill blocks after the statement ended, %d and %d before it:\n%s",
			len(now.goroutines), now.blocks, len(base.goroutines), base.blocks, strings.Join(now.goroutines, "\n\n"))
	}
	return nil
}
