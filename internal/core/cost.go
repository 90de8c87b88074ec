package core

import (
	"math"

	"repro/internal/attrs"
)

// Cost models (Section 3.4): a runtime-mirroring block-I/O model (FSCost,
// HSCost, SSCost) that predicts exactly what this engine's operators will
// do — replacement selection runs of ≈2M, materialized intermediate merge
// passes with a streaming final merge, HS bucket counts as the runtime
// chooses them, SS unit estimation per the paper's uniformity assumptions
// (Eq. 3's unit analysis is SSCost's own) — plus a small comparison-cost
// term. The planners use it; on equal I/O the tie breaks toward FS, whose
// totally ordered output can benefit downstream operators (a point Section
// 6.1 makes explicitly). The paper's Eq. 1–2 verbatim (PaperFSCost,
// PaperHSCost) live with the tests that check them against it.
//
// All costs are in block I/Os; CPU comparison work is folded in via
// CmpBlockEquiv (one block I/O ≡ 5000 comparisons), a calibration constant
// representing the CPU/I/O cost ratio of the simulated device.

// CmpBlockEquiv converts key comparisons into block-I/O equivalents.
const CmpBlockEquiv = 1.0 / 5000

// HSPerTupleOverhead prices Hashed Sort's per-tuple partitioning work (key
// encoding, hashing, bucket routing and spill bookkeeping) in comparison
// equivalents. Calibrated on this substrate so that when FS and HS tie on
// block I/O — a single-merge-pass FS against a fully-resident-bucket HS —
// the model prefers FS, reproducing the paper's observed crossover
// (Fig. 3: FS wins at large M, HS at small M).
const HSPerTupleOverhead = 16.0

// SSPerUnitOverhead prices Segmented Sort's per-unit work (unit boundary
// detection, sorter setup, per-unit bookkeeping) in comparison equivalents.
// Without it a sort of N single-tuple units would be free, and the planners
// would happily append no-op Segmented Sorts over near-unique α prefixes.
const SSPerUnitOverhead = 24.0

// MaxHSBuckets bounds the number of physical hash buckets the runtime
// creates (spilled buckets hold an append page outside the sort budget,
// mirroring PostgreSQL's BufFile behavior; the bound keeps that overhead
// trivial).
const MaxHSBuckets = 8192

// MinHSBuckets is the default lower bound on bucket count; a healthy
// over-partitioning keeps buckets internally sortable across a wide memory
// range, which is what makes HS's performance flat in M (Fig. 3).
const MinHSBuckets = 256

// CostParams carries the statistics the models need.
type CostParams struct {
	TableBlocks int64 // B(R)
	TableTuples int64 // T(R)
	MemBlocks   int64 // M, the unit reorder memory in blocks
	BlockSize   int
	// Distinct estimates D(A) for an attribute set; nil falls back to a
	// fixed default. Estimators derive from catalog statistics.
	Distinct func(attrs.Set) int64
}

// distinct applies the estimator with a guard.
func (p CostParams) distinct(set attrs.Set) int64 {
	if set.Empty() {
		return 1
	}
	if p.Distinct != nil {
		if d := p.Distinct(set); d > 0 {
			return d
		}
	}
	// Uniformity default: the square root of the table.
	d := int64(math.Sqrt(float64(p.TableTuples)))
	if d < 1 {
		d = 1
	}
	return d
}

func (p CostParams) mergeOrder() int64 {
	f := p.MemBlocks - 1
	if f < 2 {
		f = 2
	}
	return f
}

// mergePasses returns the number of intermediate materialized merge passes
// for an external sort of b blocks under budget m (runs ≈ 2m from
// replacement selection; the final merge streams).
func mergePasses(b, m, f int64) int64 {
	if b <= m {
		return 0
	}
	runs := ceilDiv(b, 2*m)
	passes := int64(0)
	for runs > f {
		runs = ceilDiv(runs, f)
		passes++
	}
	return passes
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// externalSortIO is the spill I/O of sorting b blocks under budget m:
// zero when in-memory; otherwise run formation writes b, each materialized
// pass reads and writes b, and the streaming final merge reads b.
func externalSortIO(b, m, f int64) int64 {
	if b <= m {
		return 0
	}
	return 2 * b * (mergePasses(b, m, f) + 1)
}

// sortCmps estimates key comparisons for sorting n tuples: n·log2(n).
func sortCmps(n int64) float64 {
	if n < 2 {
		return 0
	}
	return float64(n) * math.Log2(float64(n))
}

// FSCost predicts this engine's Full Sort: external sort of the whole table.
func (p CostParams) FSCost() float64 {
	io := externalSortIO(p.TableBlocks, p.MemBlocks, p.mergeOrder())
	return float64(io) + p.sortsCmps(1)*CmpBlockEquiv
}

// sortsCmps is the comparison term of an operator that sorts the table in
// the given number of equal parts: the sorts' n·log₂n summed.
func (p CostParams) sortsCmps(sorts int64) float64 {
	return float64(sorts) * sortCmps(ceilDiv(p.TableTuples, sorts))
}

// HSBucketCount mirrors the runtime's bucket-count policy: enough buckets
// that the average bucket fits the sort budget, at least MinHSBuckets, never
// more than the key's distinct count or MaxHSBuckets.
func HSBucketCount(distinct, tableBlocks, memBlocks int64) int64 {
	n := ceilDiv(tableBlocks, max(memBlocks, 1))
	if n < MinHSBuckets {
		n = MinHSBuckets
	}
	if n > MaxHSBuckets {
		n = MaxHSBuckets
	}
	if distinct > 0 && n > distinct {
		n = distinct
	}
	if n < 1 {
		n = 1
	}
	return n
}

// HSCost predicts this engine's Hashed Sort with hash key whk: one
// partitioning pass whose spilled fraction is written and read back
// (Eq. 2's 2·B·(1−N′/N) term), plus per-bucket sorts. A small per-tuple
// hashing/bucketing term keeps FS preferred when I/O ties.
func (p CostParams) HSCost(whk attrs.Set) float64 {
	n := p.hsBuckets(whk)
	bucketBlocks := ceilDiv(p.TableBlocks, n)
	// Buckets never spilled: those resident when partitioning ends (Eq. 2).
	nResident := p.MemBlocks * n / max(p.TableBlocks, 1)
	if nResident > n {
		nResident = n
	}
	spillFrac := 1 - float64(nResident)/float64(n)
	partitionIO := 2 * float64(p.TableBlocks) * spillFrac
	sortIO := float64(n) * float64(externalSortIO(bucketBlocks, p.MemBlocks, p.mergeOrder()))
	hashWork := HSPerTupleOverhead * float64(p.TableTuples)
	return partitionIO + sortIO + (p.sortsCmps(n)+hashWork)*CmpBlockEquiv
}

// hsBuckets is the bucket count Hashed Sort on whk runs with.
func (p CostParams) hsBuckets(whk attrs.Set) int64 {
	return HSBucketCount(p.distinct(whk), p.TableBlocks, p.MemBlocks)
}

// SSCost predicts the Segmented Sort step s per Eq. 3's unit analysis: k
// segments, u units per segment, each of B/(k·u) blocks, sorted
// independently. Unit counts follow the paper's uniformity assumptions.
func (p CostParams) SSCost(s Step) float64 {
	units := p.ssUnits(s.In, s.Alpha)
	unitBlocks := ceilDiv(p.TableBlocks, units)
	io := float64(units) * float64(externalSortIO(unitBlocks, p.MemBlocks, p.mergeOrder()))
	cmps := p.sortsCmps(units) + SSPerUnitOverhead*float64(units)
	return io + cmps*CmpBlockEquiv
}

// ssUnits is the number of units a Segmented Sort with prefix alpha sorts
// over a stream with property in: k segments of u units each.
func (p CostParams) ssUnits(in Props, alpha attrs.Seq) int64 {
	var k int64 = 1
	if !in.X.Empty() {
		k = p.distinct(in.X)
		// Segments may merge several X-groups (e.g. HS buckets); the
		// runtime bucket bound caps the segment count.
		if !in.Grouped && k > MaxHSBuckets {
			k = MaxHSBuckets
		}
	}
	var u int64 = 1
	if !alpha.Empty() {
		alphaAttrs := alpha.Attrs()
		dAlpha := p.distinct(alphaAttrs)
		perSeg := ceilDiv(p.TableTuples, k)
		if alphaAttrs.Intersect(in.X).Empty() {
			u = min(perSeg, dAlpha)
		} else {
			u = min(perSeg, ceilDiv(dAlpha, k))
		}
	}
	if u < 1 {
		u = 1
	}
	return k * u
}

// StepCost prices one plan step's reordering.
func (p CostParams) StepCost(s Step) float64 {
	switch s.Reorder {
	case ReorderFS:
		return p.FSCost()
	case ReorderHS:
		return p.HSCost(s.HashKey)
	case ReorderSS:
		return p.SSCost(s)
	default:
		return 0
	}
}

// StepCmps is the comparison term StepCost prices one plan step's
// reordering with — n·log₂n per sort, over the sorts the step's operator
// runs — before it is converted to block I/Os: the estimate EXPLAIN
// ANALYZE prints beside the comparisons the step actually made.
func (p CostParams) StepCmps(s Step) float64 {
	switch s.Reorder {
	case ReorderFS:
		return p.sortsCmps(1)
	case ReorderHS:
		return p.sortsCmps(p.hsBuckets(s.HashKey))
	case ReorderSS:
		return p.sortsCmps(p.ssUnits(s.In, s.Alpha))
	default:
		return 0
	}
}

// PlanCost prices a whole chain under the relation size assumption of
// Section 4.2 (every step sees the same table size).
func (p CostParams) PlanCost(plan *Plan) float64 {
	total := 0.0
	for _, s := range plan.Steps {
		total += p.StepCost(s)
	}
	return total
}
