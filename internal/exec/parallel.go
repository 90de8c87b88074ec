package exec

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/window"
)

// Segment is one cut of a chain: the step range [Lo, Hi) run as one unit,
// hash-partitioned on Key when Key is non-empty, on one site otherwise.
type Segment struct {
	Lo, Hi int
	Key    attrs.Set // common partition key; empty → a sequential segment
}

// Segments cuts a chain where its window partitioning keys diverge: the one
// place a plan is cut. Chain.Run's partitioned path runs the segments over
// hash partitions in one process; a cluster runs them over its nodes —
// shard-locally when the chain is one segment whose key covers the shard
// key, otherwise re-shuffling the rows on the next segment's key at every
// cut.
//
// A segment may run hash-partitioned on key K only when
//
//   - K ⊆ WPK of every window function in the segment: each WPK-group then
//     lands wholly inside one data partition, so every per-partition pipeline
//     sees complete window partitions (Section 3.5's condition, applied to
//     the whole segment instead of a single function);
//   - the segment's first step can tolerate a hash-partitioned input. The
//     very first segment reads the original table, of which each data
//     partition is a subsequence — subsequences preserve sortedness,
//     groupedness and (with K inside every WPK) window-partition
//     contiguity, so any reorder kind may lead it. Later segments read a
//     concatenation of per-partition outputs whose inter-partition order is
//     weaker than the stream property the planner tracked, so they must
//     begin with a reorder that rebuilds order from scratch (FS or HS);
//   - the step after the segment (when one exists) is FS or HS for the same
//     reason: it restarts from the concatenated output.
//
// Steps where no key qualifies form sequential segments with an empty Key,
// so every segment after the first begins with FS or HS.
func Segments(plan *core.Plan) []Segment {
	steps := plan.Steps
	var segs []Segment
	for i := 0; i < len(steps); {
		if key, hi := parallelSpan(steps, i); hi > i {
			segs = append(segs, Segment{Lo: i, Hi: hi, Key: key})
			i = hi
			continue
		}
		// Sequential fallback: absorb steps until a parallel span can start.
		hi := i + 1
		for hi < len(steps) {
			if _, h := parallelSpan(steps, hi); h > hi {
				break
			}
			hi++
		}
		segs = append(segs, Segment{Lo: i, Hi: hi})
		i = hi
	}
	return segs
}

// rebuildsOrder reports whether a reorder kind establishes its output
// property regardless of the input arrival order.
func rebuildsOrder(k core.ReorderKind) bool {
	return k == core.ReorderFS || k == core.ReorderHS
}

// parallelSpan returns the longest parallel-executable segment starting at
// step lo and its partition key, or hi == lo when none exists.
func parallelSpan(steps []core.Step, lo int) (attrs.Set, int) {
	if lo > 0 && !rebuildsOrder(steps[lo].Reorder) {
		return 0, lo
	}
	if steps[lo].WF.PK.Empty() {
		return 0, lo
	}
	common := steps[lo].WF.PK
	hi := lo + 1
	for hi < len(steps) && !common.Intersect(steps[hi].WF.PK).Empty() {
		common = common.Intersect(steps[hi].WF.PK)
		hi++
	}
	// The step following the segment restarts from the concatenated output;
	// shrink until it is an order-rebuilding reorder (or the chain end).
	for hi > lo && hi < len(steps) && !rebuildsOrder(steps[hi].Reorder) {
		hi--
	}
	if hi == lo {
		return 0, lo
	}
	// Recompute the widest key for the final (possibly shrunk) range.
	key := steps[lo].WF.PK
	for j := lo + 1; j < hi; j++ {
		key = key.Intersect(steps[j].WF.PK)
	}
	return key, hi
}

// runSegments is Run's partitioned path: Section 3.5's hash-partitioned
// parallelism generalized from one function — a one-step chain — to the
// whole chain. Each segment (Segments) runs its steps as sub-chains,
// NewChain + Run, each with its own spill store, the full unit reorder
// memory and a pooled arena: one per non-empty hash partition of the
// segment's input on its key, each on a worker of its own, or one over the
// whole input for a segment whose keys diverge to ∅. Their outputs are
// flattened, rows plus tail values, into whole tuples carved from the
// chain's arena in partition-index order — deterministic for a given degree
// — and released. The strings a sub-chain's spills read back are copied
// into the chain's byte slabs first, not handed over with the slabs they
// lie in: every set then goes back to the pool to serve the role it served
// (see release). The next segment reads the flattened rows, the last
// segment's are the chain's, and the chain's one Release hands back every
// slab the run carved. ctx is checked at every segment boundary and, inside
// every sub-chain, at every step boundary.
//
// Derived values and the row multiset are the sequential pipeline's; only
// the row order differs (windows are insensitive to it — callers that need
// an order sort, as the SQL runner does). A partitioned segment's metrics
// are merged (appendMerged); Elapsed spans the whole run.
func (c *Chain) runSegments(ctx context.Context, table *storage.Table, specs []window.Spec, cfg Config, segs []Segment) (*Metrics, error) {
	start := time.Now()
	metrics := &Metrics{}
	sub := cfg
	sub.Parallelism = 1
	in := table
	for _, seg := range segs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan := &core.Plan{Scheme: c.plan.Scheme, Steps: c.plan.Steps[seg.Lo:seg.Hi]}
		// The segment's output is carved before any sub-chain carves, and
		// each sub-chain's first carve — its partition's array — is made here
		// in partition order: which pooled slab set each chain takes does not
		// depend on how the workers are scheduled (see release).
		n, stride := in.Len(), in.Schema.Len()+len(plan.Steps)
		rows, vals := c.arena.Headers(n), c.arena.Values(n*stride)
		parts := [][]storage.Tuple{in.Rows}
		if !seg.Key.Empty() {
			parts = PartitionRows(in.Rows, seg.Key.IDs(), cfg.Parallelism)
		}
		chains := make([]*Chain, len(parts))
		mets := make([]*Metrics, len(parts))
		errs := make([]error, len(parts))
		var wg sync.WaitGroup
		for p, part := range parts {
			if len(part) == 0 {
				continue
			}
			chains[p] = NewChain(in.Schema, plan)
			input := &storage.Table{Schema: in.Schema, Rows: append(chains[p].Headers(len(part)), part...)}
			wg.Add(1)
			go func() {
				defer wg.Done()
				mets[p], errs[p] = chains[p].Run(ctx, input, specs, sub)
			}()
		}
		wg.Wait()
		if err := cmp.Or(errs...); err != nil {
			release(chains)
			return nil, err
		}
		var schema *storage.Schema
		for _, ch := range chains {
			if ch == nil {
				continue
			}
			from := len(rows)
			rows, schema = ch.appendRows(rows, vals[from*stride:]), ch.Schema
			if ch.ArenaStrings() { // what its spills read back dies with it
				for _, r := range rows[from:] {
					c.arena.OwnStrings(r)
				}
			}
		}
		release(chains)
		in = &storage.Table{Schema: schema, Rows: rows}
		if seg.Key.Empty() {
			metrics.Steps = append(metrics.Steps, mets[0].Steps...)
		} else {
			metrics.Steps = appendMerged(metrics.Steps, plan, mets)
			metrics.PartitionedSteps += len(plan.Steps)
		}
		metrics.Concatenated = !seg.Key.Empty()
	}
	c.Schema, c.Rows, c.Width, c.Tail = in.Schema, in.Rows, in.Schema.Len(), nil
	for _, s := range metrics.Steps {
		metrics.BlocksRead += s.BlocksRead
		metrics.BlocksWritten += s.BlocksWritten
		metrics.Comparisons += s.Comparisons
	}
	metrics.Elapsed = time.Since(start)
	return metrics, nil
}

// release releases a segment's sub-chains — nil where a partition was
// empty — last first. The pool hands out the set returned last first, so
// the next segment's sub-chains, or the next statement's once its chain
// has taken the set this chain returns, take these sets back partition for
// partition: each set keeps serving one role and stops growing once it
// fits that role (storage.TestArenaPoolSteadyState).
func release(chains []*Chain) {
	for _, ch := range slices.Backward(chains) {
		if ch != nil {
			ch.Release()
		}
	}
}

// appendMerged appends one step metric per step of plan, merged across the
// partitions' metrics (nil for an empty partition): counters and rows sum,
// a step's Duration is its slowest partition's (the parallel wall clock)
// and its Detail the first partition's, prefixed with the worker count.
func appendMerged(steps []StepMetrics, plan *core.Plan, parts []*Metrics) []StepMetrics {
	merged := make([]StepMetrics, len(plan.Steps))
	for i, s := range plan.Steps {
		merged[i] = StepMetrics{WFID: s.WF.ID, Reorder: s.Reorder}
	}
	workers := 0
	for _, m := range parts {
		if m == nil {
			continue
		}
		workers++
		for i := range merged {
			st, ms := m.Steps[i], &merged[i]
			ms.BlocksRead += st.BlocksRead
			ms.BlocksWritten += st.BlocksWritten
			ms.Comparisons += st.Comparisons
			ms.Rows += st.Rows
			ms.Duration = max(ms.Duration, st.Duration)
			if ms.Detail == "" {
				ms.Detail = st.Detail
			}
		}
	}
	for i := range merged {
		merged[i].Detail = strings.TrimSpace(fmt.Sprintf("parallel=%d %s", workers, merged[i].Detail))
	}
	return append(steps, merged...)
}

// Concatenates reports whether Chain.Run at a Parallelism > 1 would emit a
// partition-index concatenation — i.e. the chain's final segment runs
// hash-partitioned — voiding the plan's nominal output ordering. Planners
// integrating interesting orders (Section 5) consult this before paying
// for an alignment the concatenation would discard.
func Concatenates(plan *core.Plan) bool {
	segs := Segments(plan)
	return len(segs) > 0 && !segs[len(segs)-1].Key.Empty()
}

// PartitionRows hash-partitions rows on the key attributes into degree
// buckets, preserving scan order within each bucket. Chain.Run's
// partitioned path, sharded registration and the shuffle all place rows
// with it, so a chain that is shard-local on key K sees the same data
// partitions either way.
func PartitionRows(rows []storage.Tuple, ids []attrs.ID, degree int) [][]storage.Tuple {
	parts := make([][]storage.Tuple, degree)
	for _, t := range rows {
		p := int(hashTupleKey(t, ids) % uint64(degree))
		parts[p] = append(parts[p], t)
	}
	return parts
}

// PartitionPositions is PartitionRows by position: part p lists, in scan
// order, the indices of the rows PartitionRows places in part p, so a
// caller can gather each part's columns out of rows it does not copy (a
// shuffle stage's chain). The parts share one array.
func PartitionPositions(rows []storage.Tuple, ids []attrs.ID, degree int) [][]int {
	part := make([]int, len(rows))
	sizes := make([]int, degree)
	for i, t := range rows {
		part[i] = int(hashTupleKey(t, ids) % uint64(degree))
		sizes[part[i]]++
	}
	pos := make([]int, len(rows))
	parts := make([][]int, degree)
	off := 0
	for p, n := range sizes {
		parts[p] = pos[off : off : off+n]
		off += n
	}
	for i, p := range part {
		parts[p] = append(parts[p], i)
	}
	return parts
}

// hashTupleKey is FNV-1a over the concatenated single-value tuple
// encodings of the key attributes, streamed through storage.HashValueFNV
// instead of materializing the encoding — the partitioning hash runs once
// per row on every scatter and shuffle path, and the buffer it used to
// build was the hot loop's dominant allocation. The raw FNV value is
// passed through a finalizer before use: partitioning buckets by hash
// modulo degree, and FNV-1a's low bits carry visible structure for short
// integer keys — every item key in a small dimension can land in one
// bucket mod 2, leaving shards empty. Every placement decision in one
// process (the partitioned chain, sharded registration, append routing, the
// shuffle data plane) uses this same function, so placement stays
// internally consistent.
func hashTupleKey(t storage.Tuple, ids []attrs.ID) uint64 {
	return mix64(storage.HashKeyFNV(t, ids))
}

// mix64 is the splitmix64 finalizer: full-avalanche bit mixing so the
// modulo in PartitionRows sees uniform low bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
