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

// chainSegment is a maximal run of plan steps executed as one unit by
// runSegments: hash-partitioned across workers on Key when Key is
// non-empty, sequentially otherwise.
type chainSegment struct {
	lo, hi int       // step range [lo, hi)
	Key    attrs.Set // common partition key; empty → sequential segment
}

// planSegments splits a chain into parallel-executable segments, falling
// back to sequential segments where the partition keys diverge.
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
func planSegments(plan *core.Plan) []chainSegment {
	steps := plan.Steps
	var segs []chainSegment
	for i := 0; i < len(steps); {
		if key, hi := parallelSpan(steps, i); hi > i {
			segs = append(segs, chainSegment{lo: i, hi: hi, Key: key})
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
		segs = append(segs, chainSegment{lo: i, hi: hi})
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
// whole chain. Each segment (planSegments) runs its steps as sub-chains,
// NewChain + Run, each with its own spill store, the full unit reorder
// memory and a pooled arena: one per non-empty hash partition of the
// segment's input on its key, each on a worker of its own, or one over the
// whole input for a segment whose keys diverge to ∅. Their outputs are
// flattened, rows plus tail values, into whole tuples carved from the
// chain's arena in partition-index order — deterministic for a given degree
// — and released; the next segment reads the flattened rows, the last
// segment's are the chain's, and the chain's one Release hands back every
// slab the run carved. ctx is checked at every segment boundary and, inside
// every sub-chain, at every step boundary.
//
// Derived values and the row multiset are the sequential pipeline's; only
// the row order differs (windows are insensitive to it — callers that need
// an order sort, as the SQL runner does). A partitioned segment's metrics
// are merged (appendMerged); Elapsed spans the whole run.
func (c *Chain) runSegments(ctx context.Context, table *storage.Table, specs []window.Spec, cfg Config, segs []chainSegment) (*Metrics, error) {
	start := time.Now()
	metrics := &Metrics{}
	sub := cfg
	sub.Parallelism = 1
	in := table
	for _, seg := range segs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan := &core.Plan{Scheme: c.plan.Scheme, Steps: c.plan.Steps[seg.lo:seg.hi]}
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
			if ch != nil {
				rows, schema = ch.appendRows(rows, vals[len(rows)*stride:]), ch.Schema
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

// ChainCommonKey returns the partition key shared by every step of the
// chain: the intersection of all window partitioning keys, empty when any
// step has an empty WPK or the keys diverge to ∅. It is the whole-chain
// form of the per-segment analysis in planSegments, and the routing
// predicate of the sharded executor: a table hash-partitioned on a
// non-empty K ⊆ ChainCommonKey can run the entire chain independently per
// partition — every window partition of every function lands wholly inside
// one data partition — so shard-local execution is value-identical to
// single-engine execution (Section 3.5's condition, lifted from segments of
// one process to nodes of a cluster). Unlike planSegments, no
// reorder-kind condition applies: each partition runs the chain from its
// own raw input, so there is no mid-chain concatenation for a later step
// to observe.
func ChainCommonKey(plan *core.Plan) attrs.Set {
	if plan == nil || len(plan.Steps) == 0 {
		return 0
	}
	key := plan.Steps[0].WF.PK
	for _, step := range plan.Steps[1:] {
		key = key.Intersect(step.WF.PK)
	}
	return key
}

// Segment is one key-divergence segment of a chain: the maximal step run
// [Lo, Hi) whose window partitioning keys share the non-empty common Key —
// ChainCommonKey restricted to the run.
type Segment struct {
	Lo, Hi int
	Key    attrs.Set
}

// DivergentSegments splits a chain at its key-divergence points: each
// returned segment is a maximal step run with a non-empty common partition
// key (ChainCommonKey applied per segment). A table hash-partitioned on a
// segment's Key runs that segment fully partitioned — Section 3.5's
// condition per segment instead of per chain — so a distributed executor
// can run every segment scattered, re-shuffling rows on the next segment's
// key between segments (Cao et al., VLDB 2012).
//
// Two conditions void the split, returning nil (the caller falls back to
// single-site execution):
//
//   - a step with an empty WPK, or a divergence down to ∅ mid-segment:
//     that segment has no usable shuffle key;
//   - a segment whose first step (after the first segment) does not
//     rebuild order from scratch (FS/HS): the shuffled rows arrive in
//     arbitrary interleaved order, weaker than the stream property the
//     planner tracked across the cut, so only an order-rebuilding reorder
//     may lead a post-shuffle segment — the same condition planSegments
//     imposes on post-concatenation segments in one process.
//
// A chain with a non-empty whole-chain common key yields one segment.
func DivergentSegments(plan *core.Plan) []Segment {
	if plan == nil || len(plan.Steps) == 0 {
		return nil
	}
	steps := plan.Steps
	key := steps[0].WF.PK
	if key.Empty() {
		return nil
	}
	var segs []Segment
	lo := 0
	for i := 1; i < len(steps); i++ {
		if next := key.Intersect(steps[i].WF.PK); !next.Empty() {
			key = next
			continue
		}
		if steps[i].WF.PK.Empty() || !rebuildsOrder(steps[i].Reorder) {
			return nil
		}
		segs = append(segs, Segment{Lo: lo, Hi: i, Key: key})
		lo, key = i, steps[i].WF.PK
	}
	return append(segs, Segment{Lo: lo, Hi: len(steps), Key: key})
}

// Concatenates reports whether Chain.Run at a Parallelism > 1 would emit a
// partition-index concatenation — i.e. the chain's final segment runs
// hash-partitioned — voiding the plan's nominal output ordering. Planners
// integrating interesting orders (Section 5) consult this before paying
// for an alignment the concatenation would discard.
func Concatenates(plan *core.Plan) bool {
	segs := planSegments(plan)
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
