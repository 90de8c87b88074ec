package service

import (
	"context"
	"time"

	"repro/internal/cache"
	"repro/internal/recycle"
	"repro/internal/sql"
)

// The shared-subplan cache generalizes the prepared-statement cache from
// "share the planning" to "share the execution": two statements whose
// expensive half — WHERE filtering plus the chain's leading heavy reorder
// (the scan+reorder subplan of internal/sql/subplan.go) — has the same
// identity run that half once and evaluate their private derivation
// suffixes over one materialized segment. It is a cache.LRU of
// *sql.SharedSegment, and identity has two levels:
//
//   - the *group* (sql.Prepared.AppendSubplanKey): catalog entry, data
//     generation, lowercased table and canonical WHERE — statements in one
//     group read exactly the same rows. A segment stays cached while it is
//     current (sql.SharedSegment.Current), so re-registering a table or
//     appending to it retires every segment built on the old data, and a
//     query arriving after an append keys to the new generation, misses,
//     and re-scans.
//
//   - the *node*: the canonical form of the leading reorder — the frame
//     lattice position (core.LatticeNode) of the chain that runs, which on
//     a shard node is the coordinator's plan (sql.Prepared.Bind), so every
//     node of one distributed statement keys its scan on the same node.
//
// An exact (group, node) match is direct reuse. Within a group, a miss
// also takes a *finer* cached segment whose stream properties match all of
// the statement's window functions (Props.MatchesAll — Definition 2
// applied at the cache boundary): the frame-lattice hit, where a
// dashboard's coarse-grain queries ride the finest query's scan. A
// segment's properties are known from planning time, so the match also
// finds scans still in flight.
//
// The cache's singleflight makes the first query to want a segment its
// leader; colliding queries attach and wait (honoring their contexts).
// Every participant holds its own admission slot — the leader acquires its
// slot before entering the cache, so a full governor can never deadlock
// the flight — but the scan's I/O is charged once, to the leader
// (sql.Input.ChargeScan); attachers report suffix-only metrics. A leader
// error removes the entry and its attachers fall back to private
// execution (the cache's Fallbacks), so a poisoned scan is never served.

// sharedSegment resolves prep's scan+reorder subplan through the shared
// cache. It returns (nil, "", nil) when the execution should run
// privately: sharing disabled, statement not shareable, or this query
// attached to a flight whose leader failed (the fallback). A non-nil
// segment comes with the disposition the caller stamps on the result;
// disposition "miss" means this query led the scan and must charge it.
func (s *Service) sharedSegment(ctx context.Context, prep *sql.Prepared) (*sql.SharedSegment, string, error) {
	if s.subplans == nil || !prep.Shareable() {
		return nil, "", nil
	}
	buf := recycle.Keys.Get()
	defer recycle.Keys.Put(buf)
	q := subplanLookup(prep, *buf)
	*buf = q.Key
	seg, disp, err := s.subplans.Get(ctx, q, s.eng.Generation(), func() (*sql.SharedSegment, error) {
		return prep.RunSubplan(ctx)
	})
	if err != nil && disp == cache.Attach {
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		return nil, "", nil // the leader failed: execute privately
	}
	return seg, disp, err
}

// subplanLookup is prep's identity in the subplan cache, its key rendered
// into buf: its group, and its frame-lattice node within the group.
func subplanLookup(prep *sql.Prepared, buf []byte) cache.Lookup {
	key, group := prep.AppendSubplanKey(buf[:0])
	return cache.Lookup{Key: key, Group: group, Tag: prep, Match: finerSegment}
}

// finerSegment is the frame-lattice match: the segment led by statement
// have serves statement want when its stream properties match every window
// function of want.
func finerSegment(have, want any) bool {
	return have.(*sql.Prepared).SubplanProps().MatchesAll(want.(*sql.Prepared).WFs())
}

// openStream opens prep's cursor over in: over the shared segment when in
// is the statement's own table and the subplan cache yields one, privately
// otherwise. The disposition is stamped on the cursor's meta so it reaches
// the trace, the trailer and EXPLAIN ANALYZE.
func (s *Service) openStream(ctx context.Context, prep *sql.Prepared, in sql.Input, shardLocal bool) (*sql.Cursor, error) {
	start := time.Now()
	var disp string
	if in.Rows == nil {
		var err error
		if in.Shared, disp, err = s.sharedSegment(ctx, prep); err != nil {
			return nil, err
		}
	}
	wait := time.Since(start)
	if disp == cache.Miss {
		wait -= in.Shared.Metrics.Elapsed // the leader's reorder is booked under its execute span
	}
	in.ChargeScan = disp == cache.Miss
	cur, err := prep.Open(ctx, in, shardLocal)
	if err != nil {
		return nil, err
	}
	cur.Meta().SharedScan, cur.Meta().SharedWait = disp, wait
	return cur, nil
}
