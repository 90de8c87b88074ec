package cache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// value is a cached test value: the version of the world it was built
// under, valid while the world has not moved past it.
type value struct {
	name    string
	version int64
}

type world struct{ version atomic.Int64 }

func (w *world) valid(v *value) bool { return v.version == w.version.Load() }

func (w *world) fill(name string) func() (*value, error) {
	return func() (*value, error) { return &value{name, w.version.Load()}, nil }
}

func get(t *testing.T, c *LRU[*value], w *world, key string) string {
	t.Helper()
	v, disp, err := c.Get(context.Background(), Lookup{Key: []byte(key)}, 0, w.fill(key))
	if err != nil || v.name != key {
		t.Fatalf("Get(%q) = %+v, %v", key, v, err)
	}
	return disp
}

// waitAttached yields until n lookups are waiting on a fill.
func waitAttached(c *LRU[*value], epoch uint64, n uint64) {
	for c.Stats(epoch).Attaches < n {
		runtime.Gosched()
	}
}

// TestLRUOrder: a hit refreshes recency, so past capacity the least
// recently used entry goes, one eviction per dropped entry.
func TestLRUOrder(t *testing.T) {
	w := &world{}
	c := New(2, w.valid)
	for _, step := range []struct{ key, want string }{
		{"a", Miss}, {"b", Miss}, {"a", Hit}, // a is now the most recent
		{"c", Miss},                         // evicts b
		{"a", Hit}, {"c", Hit}, {"b", Miss}, // b evicts a
		{"a", Miss},
	} {
		if got := get(t, c, w, step.key); got != step.want {
			t.Fatalf("Get(%q) disposition %q, want %q", step.key, got, step.want)
		}
	}
	st := c.Stats(0)
	if st.Size != 2 || st.Capacity != 2 || st.Evictions != 3 || st.Hits != 3 || st.Misses != 5 {
		t.Fatalf("stats %+v, want size 2, 3 evictions, 3 hits, 5 misses", st)
	}
}

// TestLeaderErrorReachesAttachers: a failed fill hands its error to every
// attacher and leaves no entry behind, so the next lookup fills afresh.
func TestLeaderErrorReachesAttachers(t *testing.T) {
	w := &world{}
	c := New(4, w.valid)
	boom := errors.New("boom")
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), Lookup{Key: []byte("k")}, 0, func() (*value, error) {
			<-release
			return nil, boom
		})
		leaderDone <- err
	}()
	for c.Stats(0).Misses < 1 {
		runtime.Gosched()
	}
	const attachers = 3
	errs := make(chan error, attachers)
	for i := 0; i < attachers; i++ {
		go func() {
			_, disp, err := c.Get(context.Background(), Lookup{Key: []byte("k")}, 0, func() (*value, error) {
				return nil, fmt.Errorf("attacher filled")
			})
			if disp != Attach {
				err = fmt.Errorf("disposition %q, want attach", disp)
			}
			errs <- err
		}()
	}
	waitAttached(c, 0, attachers)
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader error %v, want boom", err)
	}
	for i := 0; i < attachers; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("attacher error %v, want the leader's", err)
		}
	}
	if st := c.Stats(0); st.Size != 0 || st.Fallbacks != attachers {
		t.Fatalf("stats %+v, want no entry and %d fallbacks", st, attachers)
	}
	if disp := get(t, c, w, "k"); disp != Miss {
		t.Fatalf("lookup after a failed fill: %q, want a fresh miss", disp)
	}
}

// TestAttacherContextCancelled: an attacher whose ctx ends mid-wait
// returns its ctx's error at once; the fill completes for everyone else.
func TestAttacherContextCancelled(t *testing.T) {
	w := &world{}
	c := New(4, w.valid)
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = c.Get(context.Background(), Lookup{Key: []byte("k")}, 0, func() (*value, error) {
			<-release
			return &value{"k", 0}, nil
		})
	}()
	for c.Stats(0).Misses < 1 {
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	attacherDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, Lookup{Key: []byte("k")}, 0, w.fill("k"))
		attacherDone <- err
	}()
	waitAttached(c, 0, 1)
	cancel()
	if err := <-attacherDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled attacher returned %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone
	if disp := get(t, c, w, "k"); disp != Hit {
		t.Fatalf("lookup after the fill completed: %q, want hit", disp)
	}
	if st := c.Stats(0); st.Fallbacks != 0 {
		t.Fatalf("a cancelled wait counted as a fallback: %+v", st)
	}
}

// TestStaleFillServedNotCached: a fill whose value went stale before it
// completed is still what its leader and attachers get, but it is not
// cached — the next lookup fills again.
func TestStaleFillServedNotCached(t *testing.T) {
	w := &world{}
	c := New(4, w.valid)
	release := make(chan struct{})
	leader := make(chan *value, 1)
	go func() {
		v, _, _ := c.Get(context.Background(), Lookup{Key: []byte("k")}, 0, func() (*value, error) {
			v := &value{"k", w.version.Load()}
			<-release
			return v, nil
		})
		leader <- v
	}()
	for c.Stats(0).Misses < 1 {
		runtime.Gosched()
	}
	attacher := make(chan *value, 1)
	go func() {
		v, _, _ := c.Get(context.Background(), Lookup{Key: []byte("k")}, 0, w.fill("k"))
		attacher <- v
	}()
	waitAttached(c, 0, 1)
	w.version.Add(1) // the world moves while the fill runs
	close(release)
	if l, a := <-leader, <-attacher; l.version != 0 || a != l {
		t.Fatalf("leader got %+v, attacher %+v: both want the fill's version-0 value", l, a)
	}
	if st := c.Stats(0); st.Size != 0 || st.Invalidations != 1 {
		t.Fatalf("stats %+v, want the stale fill uncached and counted", st)
	}
	if disp := get(t, c, w, "k"); disp != Miss {
		t.Fatalf("lookup after a stale fill: %q, want miss", disp)
	}
}

// TestSweep: when the epoch moves every stale value goes at once, not just
// the one looked up, while valid values stay; without a move a miss still
// sweeps, so a value that went stale without one does not linger.
func TestSweep(t *testing.T) {
	w := &world{}
	stale := map[string]bool{}
	c := New(8, func(v *value) bool { return !stale[v.name] })
	for _, k := range []string{"a", "b", "c"} {
		get(t, c, w, k)
	}
	stale["a"], stale["b"] = true, true
	if _, disp, _ := c.Get(context.Background(), Lookup{Key: []byte("c")}, 1, w.fill("c")); disp != Hit {
		t.Fatalf("valid entry after the sweep: %q, want hit", disp)
	}
	if st := c.Stats(1); st.Size != 1 || st.Invalidations != 2 {
		t.Fatalf("after an epoch move: %+v, want 1 entry and 2 invalidations", st)
	}
	stale["c"] = true
	if _, disp, _ := c.Get(context.Background(), Lookup{Key: []byte("d")}, 1, w.fill("d")); disp != Miss {
		t.Fatalf("new key: %q, want miss", disp)
	}
	if st := c.Stats(1); st.Size != 1 || st.Invalidations != 3 {
		t.Fatalf("after a miss: %+v, want only d and 3 invalidations", st)
	}
}

// TestEpochMoveDropsFlights: a lookup after an epoch move never attaches to
// a fill that began before it; it leads a fill of its own.
func TestEpochMoveDropsFlights(t *testing.T) {
	w := &world{}
	c := New(4, w.valid)
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = c.Get(context.Background(), Lookup{Key: []byte("k")}, 0, func() (*value, error) {
			<-release
			return &value{"k", 0}, nil
		})
	}()
	for c.Stats(0).Misses < 1 {
		runtime.Gosched()
	}
	if _, disp, _ := c.Get(context.Background(), Lookup{Key: []byte("k")}, 1, w.fill("k")); disp != Miss {
		t.Fatalf("lookup after the epoch moved: %q, want its own miss", disp)
	}
	close(release)
	<-leaderDone
	if _, disp, _ := c.Get(context.Background(), Lookup{Key: []byte("k")}, 1, w.fill("k")); disp != Hit {
		t.Fatalf("the newer fill was not kept: %q", disp)
	}
}

// TestMatchWithinGroup: a miss on its key is served by another entry of the
// same group that Match accepts — in flight or complete — and never by an
// entry of another group.
func TestMatchWithinGroup(t *testing.T) {
	w := &world{}
	c := New(8, w.valid)
	finer := func(have, want any) bool { return have.(int) >= want.(int) }
	lookup := func(key, group string, grain int) string {
		_, disp, err := c.Get(context.Background(), Lookup{Key: []byte(key), Group: len(group), Tag: grain, Match: finer}, 0, w.fill(key))
		if err != nil {
			t.Fatal(err)
		}
		return disp
	}
	if d := lookup("g1|fine", "g1", 3); d != Miss {
		t.Fatalf("first lookup %q", d)
	}
	if d := lookup("g1|coarse", "g1", 1); d != Hit {
		t.Fatalf("coarser lookup in the group: %q, want a hit on the finer entry", d)
	}
	if d := lookup("g2|coarse", "g2", 1); d != Miss {
		t.Fatalf("lookup in another group: %q, want miss", d)
	}
	if d := lookup("g1|finest", "g1", 5); d != Miss {
		t.Fatalf("finer lookup than any entry: %q, want miss", d)
	}
}

// TestFillPanicReleasesAttachers: a fill that panics still wakes its
// attachers, with an error, and leaves nothing cached.
func TestFillPanicReleasesAttachers(t *testing.T) {
	w := &world{}
	c := New(4, w.valid)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { _ = recover() }()
		_, _, _ = c.Get(context.Background(), Lookup{Key: []byte("k")}, 0, func() (*value, error) {
			<-release
			panic("fill")
		})
	}()
	for c.Stats(0).Misses < 1 {
		runtime.Gosched()
	}
	attacher := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), Lookup{Key: []byte("k")}, 0, w.fill("k"))
		attacher <- err
	}()
	waitAttached(c, 0, 1)
	close(release)
	wg.Wait()
	if err := <-attacher; !errors.Is(err, errFillPanicked) {
		t.Fatalf("attacher of a panicked fill got %v", err)
	}
	if st := c.Stats(0); st.Size != 0 {
		t.Fatalf("a panicked fill stayed cached: %+v", st)
	}
}

// TestConcurrentLookups is the -race exercise: many goroutines over a few
// keys while the world moves; every lookup returns a value built for its
// key, and a value a hit returns was valid at some point.
func TestConcurrentLookups(t *testing.T) {
	w := &world{}
	c := New(3, w.valid)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%5)
				if g == 0 && i%20 == 0 {
					w.version.Add(1)
				}
				v, _, err := c.Get(context.Background(), Lookup{Key: []byte(key)}, uint64(w.version.Load()), w.fill(key))
				if err != nil || v.name != key {
					t.Errorf("Get(%q) = %+v, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats(uint64(w.version.Load()))
	if st.Size > 3 || st.Hits+st.Misses+st.Attaches != 8*200 {
		t.Fatalf("stats %+v after 1600 lookups over capacity 3", st)
	}
}
