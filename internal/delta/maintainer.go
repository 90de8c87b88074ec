package delta

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/window"
	"repro/internal/xsort"
)

// Delta-row operation tags carried in the _op meta column.
const (
	// OpInit tags a row of the subscription's initial result.
	OpInit = "init"
	// OpAppend tags a newly ingested row's output.
	OpAppend = "append"
	// OpUpsert tags a previously emitted row whose derived values changed.
	OpUpsert = "upsert"
)

// MetaColumns are appended to a maintained query's output schema: the
// base-table row id, the operation tag, and the data-generation watermark
// the row is current as of.
func MetaColumns() []storage.Column {
	return []storage.Column{
		{Name: "_rid", Type: storage.TypeInt},
		{Name: "_op", Type: storage.TypeString},
		{Name: "_watermark", Type: storage.TypeInt},
	}
}

// maintenance modes: how a spec's values react to rows appended at a
// partition's tail (in ordering-key position).
const (
	// modeFull recomputes every dirty partition: unbounded-following
	// frames, RANGE offset frames, n-dependent functions (percent_rank,
	// cume_dist, ntile), and reference functions all couple old rows to
	// new ones arbitrarily.
	modeFull = iota
	// modeRowNumber assigns n+1, n+2, ... to tail rows.
	modeRowNumber
	// modeRank patches rank from the last peer group's start.
	modeRank
	// modeDense patches dense_rank from the last distinct-key count.
	modeDense
	// modeRunning extends a running aggregate (UNBOUNDED PRECEDING ..
	// CURRENT ROW) from a per-partition checkpoint — the spilling paper's
	// incremental-aggregation trick.
	modeRunning
	// modeLookback re-evaluates a ROWS k PRECEDING .. CURRENT ROW
	// aggregate over the stored k-row tail plus the new rows.
	modeLookback
)

// classify maps a spec to its maintenance mode.
func classify(spec window.Spec) int {
	switch spec.Kind {
	case window.RowNumber:
		return modeRowNumber
	case window.Rank:
		return modeRank
	case window.DenseRank:
		return modeDense
	case window.Count, window.Sum, window.Avg, window.Min, window.Max:
		f := spec.EffectiveFrame()
		if f.Start.Type == window.UnboundedPreceding && f.End.Type == window.CurrentRow {
			return modeRunning
		}
		if f.Mode == window.Rows && f.Start.Type == window.Preceding && f.End.Type == window.CurrentRow {
			return modeLookback
		}
		return modeFull
	default:
		return modeFull
	}
}

// partState is one window partition's maintenance state: its row
// positions in evaluation order plus the running checkpoint the tail
// paths extend. Checkpoint fields are only meaningful for the spec's
// mode; rebuild refreshes all of them in one linear pass.
type partState struct {
	// positions index Maintainer.rows, sorted by (OK, arrival) — the
	// evaluation order of a stable sort over the scan order.
	positions []int

	rank   int64 // rank of the last row
	dense  int64 // dense_rank of the last row
	cnt    int64 // running non-NULL argument count (rows for COUNT(*))
	sumI   int64
	sumF   float64
	allInt bool          // no FLOAT argument seen in the partition
	ext    storage.Value // running MIN/MAX extreme
}

// wfState is one spec's maintenance state across all partitions.
type wfState struct {
	spec  window.Spec
	mode  int
	vals  []storage.Value // derived value per Maintainer.rows position
	parts map[string]*partState
}

// Maintainer keeps one prepared statement's output current under appends.
// It owns a filtered copy of the base rows (the statement's WHERE view)
// and, per window spec, the derived value of every row plus per-partition
// checkpoints. Apply ingests one published batch and returns the changed
// output rows. Not safe for concurrent use; a subscription drives its
// maintainer from one goroutine.
type Maintainer struct {
	info *sql.MaintainInfo
	rows []storage.Tuple // WHERE-filtered base rows, scan order
	rids []int64         // global base-table row index per row
	gen  uint64          // data generation covered
	wfs  []*wfState
	out  *storage.Schema
	ev   window.Evaluator // every evaluation's buffers, one partition at a time
}

// Update is the result of applying one batch: the projected delta rows
// (appends then upserts, each tagged and watermarked), plus the scan
// accounting that proves incrementality.
type Update struct {
	Rows      []storage.Tuple
	Watermark uint64
	Appended  int
	Upserted  int
	// RowsScanned counts row visits window maintenance made for this
	// batch; FullRows is what a from-scratch recompute would have made
	// (filtered rows × specs). Steps breaks RowsScanned down per spec;
	// Metrics exposes the same numbers in the executor's shape.
	RowsScanned int64
	FullRows    int64
	Steps       []int64
}

// Metrics renders the update's scan accounting as executor metrics — one
// step per maintained spec — so serving layers report maintenance cost in
// the same currency as chain execution.
func (u *Update) Metrics() *exec.Metrics {
	m := &exec.Metrics{}
	for i, n := range u.Steps {
		m.Steps = append(m.Steps, exec.StepMetrics{WFID: i, Rows: n})
	}
	return m
}

// NewMaintainer bootstraps maintenance state for info over the table
// snapshot t at data generation gen: it filters the rows, evaluates every
// spec once (exactly what a fresh execution would compute), and builds
// the per-partition checkpoints the tail paths extend.
func NewMaintainer(info *sql.MaintainInfo, t *storage.Table, gen uint64) (*Maintainer, error) {
	m := &Maintainer{
		info: info,
		gen:  gen,
		out:  storage.NewSchema(append(append([]storage.Column{}, info.OutCols...), MetaColumns()...)...),
	}
	for i, row := range t.Rows {
		ok, err := m.filter(row)
		if err != nil {
			return nil, err
		}
		if ok {
			m.rows = append(m.rows, row)
			m.rids = append(m.rids, int64(i))
		}
	}
	for _, spec := range info.Specs {
		wf := &wfState{
			spec:  spec,
			mode:  classify(spec),
			vals:  make([]storage.Value, len(m.rows)),
			parts: make(map[string]*partState),
		}
		var order []string // partition keys in first-seen order
		for pos, row := range m.rows {
			key := partKey(row, spec)
			ps, ok := wf.parts[key]
			if !ok {
				ps = &partState{}
				wf.parts[key] = ps
				order = append(order, key)
			}
			ps.positions = append(ps.positions, pos)
		}
		for _, key := range order {
			ps := wf.parts[key]
			m.sortPositions(ps.positions, spec)
			if err := m.recomputePartition(wf, ps, nil, 0); err != nil {
				return nil, err
			}
		}
		m.wfs = append(m.wfs, wf)
	}
	return m, nil
}

// OutputColumns returns the maintained output schema (projection plus
// meta columns).
func (m *Maintainer) OutputColumns() []storage.Column { return m.out.Columns }

// Initial returns the full current result, every row tagged OpInit at the
// bootstrap watermark — what a subscription emits before its first delta.
func (m *Maintainer) Initial() []storage.Tuple {
	out := make([]storage.Tuple, len(m.rows))
	for pos := range m.rows {
		out[pos] = m.projectPos(pos, OpInit, m.gen)
	}
	return out
}

// Apply ingests one published batch: WHERE-filters the new rows, patches
// or recomputes each spec's dirty partitions, and returns the delta —
// appended rows first (in row-id order), then upserted old rows whose
// derived values changed. Batches at or below the covered generation are
// skipped (they were already part of the bootstrap snapshot).
func (m *Maintainer) Apply(b Batch) (*Update, error) {
	if b.Gen <= m.gen {
		return &Update{Watermark: m.gen}, nil
	}
	var fresh []storage.Tuple
	var freshRids []int64
	for i, row := range b.Rows {
		ok, err := m.filter(row)
		if err != nil {
			return nil, err
		}
		if ok {
			fresh = append(fresh, row)
			freshRids = append(freshRids, b.StartRid+int64(i))
		}
	}
	base := len(m.rows)
	m.rows = append(m.rows, fresh...)
	m.rids = append(m.rids, freshRids...)

	u := &Update{Watermark: b.Gen}
	changed := make(map[int]bool) // old positions with changed derived values
	steps := make([]int64, len(m.wfs))
	for wi, wf := range m.wfs {
		wf.vals = append(wf.vals, make([]storage.Value, len(fresh))...)
		// Group the new positions per partition, preserving arrival order.
		dirty := make(map[string][]int)
		var order []string
		for i := range fresh {
			pos := base + i
			key := partKey(m.rows[pos], wf.spec)
			if _, ok := dirty[key]; !ok {
				order = append(order, key)
			}
			dirty[key] = append(dirty[key], pos)
		}
		for _, key := range order {
			newPos := dirty[key]
			m.sortPositions(newPos, wf.spec)
			ps, exists := wf.parts[key]
			if !exists {
				ps = &partState{positions: newPos}
				wf.parts[key] = ps
				if err := m.recomputePartition(wf, ps, nil, 0); err != nil {
					return nil, err
				}
				steps[wi] += int64(len(newPos))
				continue
			}
			scanned, err := m.applyPartition(wf, ps, newPos, changed, base)
			if err != nil {
				return nil, err
			}
			steps[wi] += scanned
		}
	}
	u.Steps = steps
	for _, n := range steps {
		u.RowsScanned += n
	}
	u.FullRows = int64(len(m.rows)) * int64(len(m.wfs))
	m.gen = b.Gen

	for pos := base; pos < len(m.rows); pos++ {
		u.Rows = append(u.Rows, m.projectPos(pos, OpAppend, b.Gen))
		u.Appended++
	}
	upserts := make([]int, 0, len(changed))
	for pos := range changed {
		upserts = append(upserts, pos)
	}
	sort.Ints(upserts)
	for _, pos := range upserts {
		u.Rows = append(u.Rows, m.projectPos(pos, OpUpsert, b.Gen))
		u.Upserted++
	}
	return u, nil
}

// applyPartition routes one existing dirty partition down the tail patch
// or the full-recompute path, returning the rows scanned.
func (m *Maintainer) applyPartition(wf *wfState, ps *partState, newPos []int, changed map[int]bool, oldLimit int) (int64, error) {
	if tailable, lookback := m.tailApplicable(wf, ps, newPos); tailable {
		n := int64(len(newPos)) + lookback
		return n, m.patchTail(wf, ps, newPos)
	}
	// Full per-partition recompute: merge the sorted position lists (the
	// stable concat-then-sort preserves arrival order within equal keys),
	// re-evaluate, and diff against the old values.
	old := ps.positions
	merged := make([]int, 0, len(old)+len(newPos))
	merged = append(append(merged, old...), newPos...)
	m.sortPositions(merged, wf.spec)
	ps.positions = merged
	if err := m.recomputePartition(wf, ps, changed, oldLimit); err != nil {
		return 0, err
	}
	return int64(len(merged)), nil
}

// tailApplicable decides whether newPos (sorted) lands strictly at the
// partition's tail in ordering-key position, so the spec's patch mode
// applies without touching old rows. It returns the extra lookback rows
// the patch will read (modeLookback only).
func (m *Maintainer) tailApplicable(wf *wfState, ps *partState, newPos []int) (bool, int64) {
	if wf.mode == modeFull {
		return false, 0
	}
	spec := wf.spec
	last := m.rows[ps.positions[len(ps.positions)-1]]
	c := storage.CompareSeq(last, m.rows[newPos[0]], spec.OK)
	if c > 0 {
		return false, 0 // lands before the tail: old frames shift
	}
	if c == 0 && wf.mode == modeRunning && spec.EffectiveFrame().Mode == window.Range {
		// A tie extends the last peer group, so the old rows' RANGE
		// CURRENT ROW frames grow — their values change.
		return false, 0
	}
	var lookback int64
	switch wf.mode {
	case modeRunning, modeLookback:
		if spec.Kind == window.Sum {
			// SUM's output kind is INT iff every partition argument is an
			// integer; a FLOAT landing in an all-INT partition retypes
			// every old value, so only a full recompute is faithful.
			newAllInt := true
			for _, pos := range newPos {
				if v := m.rows[pos][spec.Arg]; !v.IsNull() && v.Kind() != storage.KindInt {
					newAllInt = false
					break
				}
			}
			if wf.mode == modeLookback && (!ps.allInt || !newAllInt) {
				return false, 0 // mini-slice evaluation can't see partition-wide kinds
			}
			if ps.allInt && !newAllInt {
				return false, 0
			}
		}
		if wf.mode == modeLookback {
			k := int64(spec.EffectiveFrame().Start.Offset)
			if k > int64(len(ps.positions)) {
				k = int64(len(ps.positions))
			}
			lookback = k
		}
	}
	return true, lookback
}

// patchTail extends a partition's values over newPos (sorted, all at or
// after the old tail) without revisiting old rows.
func (m *Maintainer) patchTail(wf *wfState, ps *partState, newPos []int) error {
	spec := wf.spec
	switch wf.mode {
	case modeRowNumber:
		for _, pos := range newPos {
			wf.vals[pos] = storage.Int(int64(len(ps.positions)) + 1)
			ps.positions = append(ps.positions, pos)
		}
	case modeRank, modeDense:
		last := m.rows[ps.positions[len(ps.positions)-1]]
		for _, pos := range newPos {
			row := m.rows[pos]
			if storage.CompareSeq(last, row, spec.OK) != 0 {
				ps.rank = int64(len(ps.positions)) + 1
				ps.dense++
			}
			if wf.mode == modeRank {
				wf.vals[pos] = storage.Int(ps.rank)
			} else {
				wf.vals[pos] = storage.Int(ps.dense)
			}
			ps.positions = append(ps.positions, pos)
			last = row
		}
	case modeRunning:
		if spec.EffectiveFrame().Mode == window.Range {
			// Peer groups share one value: accumulate the whole group,
			// then assign. Ties against the old tail were excluded.
			i := 0
			for i < len(newPos) {
				j := i + 1
				for j < len(newPos) && storage.CompareSeq(m.rows[newPos[i]], m.rows[newPos[j]], spec.OK) == 0 {
					j++
				}
				for k := i; k < j; k++ {
					if err := ps.accumulate(m.rows[newPos[k]], spec); err != nil {
						return err
					}
				}
				v := ps.runningValue(spec)
				for k := i; k < j; k++ {
					wf.vals[newPos[k]] = v
					ps.positions = append(ps.positions, newPos[k])
				}
				i = j
			}
		} else {
			for _, pos := range newPos {
				if err := ps.accumulate(m.rows[pos], spec); err != nil {
					return err
				}
				wf.vals[pos] = ps.runningValue(spec)
				ps.positions = append(ps.positions, pos)
			}
		}
	case modeLookback:
		k := int(spec.EffectiveFrame().Start.Offset)
		tailStart := len(ps.positions) - k
		if tailStart < 0 {
			tailStart = 0
		}
		tail := ps.positions[tailStart:]
		mini := make([]storage.Tuple, 0, len(tail)+len(newPos))
		for _, pos := range tail {
			mini = append(mini, m.rows[pos])
		}
		for _, pos := range newPos {
			mini = append(mini, m.rows[pos])
		}
		vals := make([]storage.Value, len(mini))
		if err := m.ev.EvaluateSlice(mini, spec, vals); err != nil {
			return err
		}
		for i, pos := range newPos {
			wf.vals[pos] = vals[len(tail)+i]
			ps.positions = append(ps.positions, pos)
			if err := ps.accumulate(m.rows[pos], spec); err != nil {
				return err // keeps allInt current for the SUM guard
			}
		}
	default:
		return fmt.Errorf("delta: patchTail on mode %d", wf.mode)
	}
	return nil
}

// recomputePartition evaluates the spec over the partition's (sorted)
// positions from scratch and rebuilds the checkpoint. Positions below
// oldLimit were emitted before this batch; when one's value changes it
// is recorded in changed (fresh positions are the caller's appends, not
// upserts). Bootstrap passes changed=nil.
func (m *Maintainer) recomputePartition(wf *wfState, ps *partState, changed map[int]bool, oldLimit int) error {
	rows := make([]storage.Tuple, len(ps.positions))
	for i, pos := range ps.positions {
		rows[i] = m.rows[pos]
	}
	vals := make([]storage.Value, len(rows))
	if err := m.ev.EvaluateSlice(rows, wf.spec, vals); err != nil {
		return err
	}
	for i, pos := range ps.positions {
		if changed != nil && pos < oldLimit && !storage.Identical(vals[i], wf.vals[pos]) {
			changed[pos] = true
		}
		wf.vals[pos] = vals[i]
	}
	if wf.mode != modeFull {
		ps.rebuild(rows, wf.spec)
	}
	return nil
}

// filter applies the statement's WHERE view.
func (m *Maintainer) filter(row storage.Tuple) (bool, error) {
	if m.info.Filter == nil {
		return true, nil
	}
	return m.info.Filter(row)
}

// sortPositions stable-sorts positions by the spec's ordering key; ties
// keep arrival (row-id) order, matching the executor's stable reorders.
func (m *Maintainer) sortPositions(positions []int, spec window.Spec) {
	xsort.Stable(positions, nil, func(a, b int) int {
		return storage.CompareSeq(m.rows[a], m.rows[b], spec.OK)
	})
}

// partKey encodes a row's partition-key values, −0.0 as the +0.0 it equals:
// one window partition, as to every reorder.
func partKey(row storage.Tuple, spec window.Spec) string {
	ids := spec.PK.IDs()
	var buf []byte
	for _, id := range ids {
		v := row[id]
		if v.Kind() == storage.KindFloat && v.Float64() == 0 {
			v = storage.Float(0)
		}
		buf = storage.AppendTuple(buf, storage.Tuple{v})
	}
	return string(buf)
}

// projectPos maps one maintained position to an output row with meta
// columns.
func (m *Maintainer) projectPos(pos int, op string, wm uint64) storage.Tuple {
	srcs := m.info.Sources
	t := make(storage.Tuple, len(srcs)+3)
	for i, s := range srcs {
		if s.WF >= 0 {
			t[i] = m.wfs[s.WF].vals[pos]
		} else {
			t[i] = m.rows[pos][s.Col]
		}
	}
	t[len(srcs)] = storage.Int(m.rids[pos])
	t[len(srcs)+1] = storage.StringVal(op)
	t[len(srcs)+2] = storage.Int(int64(wm))
	return t
}

// accumulate folds one row's argument into the running checkpoint.
func (ps *partState) accumulate(row storage.Tuple, spec window.Spec) error {
	if spec.Arg < 0 {
		ps.cnt++ // COUNT(*)
		return nil
	}
	v := row[spec.Arg]
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case storage.KindInt:
		ps.sumI += v.Int64()
		ps.sumF += float64(v.Int64())
	case storage.KindFloat:
		ps.sumF += v.Float64()
		ps.allInt = false
	default:
		if spec.Kind == window.Sum || spec.Kind == window.Avg {
			return fmt.Errorf("window: %s over non-numeric column", spec.Kind)
		}
	}
	ps.cnt++
	if ps.ext.IsNull() || betterExtreme(spec, v, ps.ext) {
		ps.ext = v
	}
	return nil
}

func betterExtreme(spec window.Spec, a, b storage.Value) bool {
	c := storage.Compare(a, b)
	if spec.Kind == window.Min {
		return c < 0
	}
	return c > 0
}

// runningValue renders the checkpoint as the spec's value at the
// partition's current tail — identical to what computePartition assigns
// to the last frame.
func (ps *partState) runningValue(spec window.Spec) storage.Value {
	switch spec.Kind {
	case window.Count:
		return storage.Int(ps.cnt)
	case window.Sum:
		if ps.cnt == 0 {
			return storage.Null
		}
		if ps.allInt {
			return storage.Int(ps.sumI)
		}
		return storage.Float(ps.sumF)
	case window.Avg:
		if ps.cnt == 0 {
			return storage.Null
		}
		return storage.Float(ps.sumF / float64(ps.cnt))
	case window.Min, window.Max:
		return ps.ext
	}
	return storage.Null
}

// rebuild refreshes the checkpoint from the partition's rows (already in
// evaluation order).
func (ps *partState) rebuild(rows []storage.Tuple, spec window.Spec) {
	ps.rank, ps.dense, ps.cnt, ps.sumI, ps.sumF = 0, 0, 0, 0, 0
	ps.allInt = true
	ps.ext = storage.Null
	for i, row := range rows {
		if i == 0 || storage.CompareSeq(rows[i-1], row, spec.OK) != 0 {
			ps.rank = int64(i) + 1
			ps.dense++
		}
		_ = ps.accumulate(row, spec)
	}
}
