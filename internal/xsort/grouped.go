package xsort

import (
	"hash/maphash"
	"math/bits"

	"repro/internal/attrs"
	"repro/internal/storage"
)

// The grouped sort is Hashed Sort's observation (Section 3.2) applied
// inside every in-memory sort: rows that share a value of the leading key
// column never need to be compared with each other on it. Hashing places
// them instead, and only the distinct values are compared, which turns
// O(n·log n) comparisons into O(n·log(n/k)) for k values (Section 3.4).

// minGroupRows is the shortest range the grouped sort tries to place by
// hash: below it the kernel's few comparisons cost less than the pass.
const minGroupRows = 16

// maxGroups is the most distinct leading values a range of n rows may have
// and still be placed by hash: at four rows a group or more, ordering the
// groups costs well under what merging the rows on that column would.
func maxGroups(n int) int { return n / 4 }

// stringSeed seeds the probe hash of STRING keys. Which slot a value
// probes first decides nothing about where its rows go.
var stringSeed = maphash.MakeSeed()

// sortInMemory stably sorts rows in place on s.Key with the grouped sort
// (sortRange), its scratch borrowed from the process-wide workspace, every
// key comparison counted and, when it grouped, the rows too.
func (s *Sorter) sortInMemory(rows []storage.Tuple) {
	if len(rows) < minGroupRows || len(s.Key) == 0 {
		StableTuples(rows, s.compare)
		return
	}
	sc := workspace.borrow(scratchLen(len(rows)))
	defer workspace.giveBack(sc)
	sc.ids = ensure(sc.ids, len(rows))
	if s.sortRange(sc, rows, 0, s.Key, 0) && s.Grouped != nil {
		*s.Grouped += int64(len(rows))
	}
}

// sortRange sorts rows, the stretch of the sort's input that starts at lo,
// on key, and reports whether it grouped them. A range of at least
// minGroupRows rows whose key[0] values are NULL, INT or STRING, and no
// more than maxGroups distinct, is grouped: the groups, kept in order of
// first appearance, are sorted by their first rows with counted
// comparisons under key[0] (direction and NULLS placement included), the
// rows are moved stably into their groups in that order, and each group
// is sorted on key[1:] the same way — with nothing left of the key, a
// group is done. Any other range goes to the merge kernel. Stable at every
// step, it puts each row where the kernel alone would.
//
// The range's stretch of sc.ids is its scratch, sc.groups from top its
// stack and sc.rows the kernel's: a group's sort uses its own stretch of
// the ids and the stack above its parent's groups, and the kernel's
// scratch is free again whenever a sort of one range returns.
func (s *Sorter) sortRange(sc *sortScratch, rows []storage.Tuple, lo int, key attrs.Seq, top int) bool {
	n := len(rows)
	ids := sc.ids[lo : lo+n]
	d := 0
	if n >= minGroupRows {
		d = sc.classify(rows, ids, key[0].Attr)
	}
	if d == 0 {
		mergeSort(rows, sc.rows, func(a, b storage.Tuple) int {
			s.count()
			return storage.CompareSeq(a, b, key)
		})
		return false
	}

	// Order the groups: order[r] is the group of rank r.
	stack := sc.stack(top, 2*d+scratchLen(d))
	order, bound, tmp := stack[:d], stack[d:2*d], stack[2*d:]
	for g := range order {
		order[g], bound[g] = int32(g), 0
	}
	firsts, e := sc.firsts, key[0]
	Stable(order, tmp, func(a, b int32) int {
		s.count()
		return storage.CompareAt(rows[firsts[a]], rows[firsts[b]], e)
	})

	// Place the rows: bound[g] goes from group g's size to its start, then
	// on to its end as its rows take their places in input order, and
	// ids[i] from row i's group to its place.
	for _, g := range ids {
		bound[g]++
	}
	at := int32(0)
	for _, g := range order {
		at, bound[g] = at+bound[g], at
	}
	for i, g := range ids {
		ids[i] = bound[g]
		bound[g]++
	}
	permute(rows, ids)

	if len(key) > 1 {
		start := int32(0)
		for _, g := range order {
			end := bound[g]
			if end-start > 1 {
				s.sortRange(sc, rows[start:end], lo+int(start), key[1:], top+2*d)
			}
			start = end
		}
	}
	return true
}

// classify puts each row in the group of its value of attr, groups
// numbered in order of first appearance: ids[i] is row i's group and
// sc.firsts[g] the first row of group g. It returns the number of groups,
// or 0 when the range is not to be grouped, and then stops where it found
// that out: at the first FLOAT, whose equality under storage.Compare (a
// NaN equal to every number, −0.0 to +0.0, Float(1) to Int(1)) a hash
// cannot follow, or at the value past maxGroups. NULL, INT and STRING
// values compare equal exactly when they are storage.Identical, which is
// what the probes test against each group's first row.
// Probes are not key comparisons and are not counted, as Hashed Sort's
// bucket routing is not.
func (sc *sortScratch) classify(rows []storage.Tuple, ids []int32, attr attrs.ID) int {
	limit := maxGroups(len(rows))
	// A table of at least 2·limit slots, so never more than half full.
	shift := 64 - bits.Len(uint(2*limit-1))
	size := 1 << (64 - shift)
	sc.table = ensure(sc.table, size)
	table := sc.table[:size]
	clear(table)
	sc.firsts = ensure(sc.firsts, limit)
	firsts := sc.firsts[:limit]
	mask := uint64(size - 1)

	d, null, grouped := 0, int32(-1), true
scan:
	for i, r := range rows {
		v := r[attr]
		var h uint64
		switch v.Kind() {
		case storage.KindInt:
			h = uint64(v.Int64()) * 0x9e3779b97f4a7c15
		case storage.KindString:
			h = maphash.String(stringSeed, v.Str())
		case storage.KindNull:
			if null < 0 {
				if d == limit {
					grouped = false
					break scan
				}
				null, firsts[d] = int32(d), int32(i)
				d++
			}
			ids[i] = null
			continue
		default:
			grouped = false
			break scan
		}
		for slot := h >> shift; ; slot = (slot + 1) & mask {
			g := table[slot]
			if g == 0 {
				if d == limit {
					grouped = false
					break scan
				}
				firsts[d] = int32(i)
				d++
				table[slot], ids[i] = int32(d), int32(d-1)
				break
			}
			if storage.Identical(rows[firsts[g-1]][attr], v) {
				ids[i] = g - 1
				break
			}
		}
	}
	if !grouped {
		return 0
	}
	return d
}

// permute moves rows[i] to rows[to[i]] for every i, in place: each swap
// puts one row where it goes, and to ends as the identity.
func permute(rows []storage.Tuple, to []int32) {
	for i := range rows {
		for j := to[i]; j != int32(i); j = to[i] {
			rows[i], rows[j] = rows[j], rows[i]
			to[i], to[j] = to[j], j
		}
	}
}

// stack returns n entries of sc.groups from top. A longer stack is a new
// array: the levels below keep their groups in the one they were given.
func (sc *sortScratch) stack(top, n int) []int32 {
	if len(sc.groups) < top+n {
		sc.groups = make([]int32, 2*(top+n))
	}
	return sc.groups[top : top+n]
}

// ensure returns a if it holds n elements, and a new array of n if not.
func ensure[T any](a []T, n int) []T {
	if len(a) < n {
		return make([]T, n)
	}
	return a
}
