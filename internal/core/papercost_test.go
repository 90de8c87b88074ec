package core

import (
	"math"

	"repro/internal/attrs"
)

// The paper's analytical formulas Eq. 1–2, kept verbatim for the tests
// (cost_test.go's TestPaperFormulas): the planners price with FSCost and
// HSCost, which mirror what the operators do.

// PaperFSCost is Eq. 1 verbatim: 2·B·(⌈log_F(B/2M)⌉+1).
func (p CostParams) PaperFSCost() float64 {
	b, m := float64(p.TableBlocks), float64(p.MemBlocks)
	f := float64(p.mergeOrder())
	passes := math.Ceil(math.Log(math.Max(b/(2*m), 1)) / math.Log(f))
	return 2 * b * (passes + 1)
}

// PaperHSCost is Eq. 2 verbatim with N = D(WHK).
func (p CostParams) PaperHSCost(whk attrs.Set) float64 {
	b, m := float64(p.TableBlocks), float64(p.MemBlocks)
	n := float64(p.distinct(whk))
	nPrime := math.Floor(m * n / b)
	if nPrime > n {
		nPrime = n
	}
	bucket := int64(math.Ceil(b / n))
	sortCost := n * float64(externalSortIO(bucket, p.MemBlocks, p.mergeOrder()))
	return 2*b*(1-nPrime/n) + sortCost
}
