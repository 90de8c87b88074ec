package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"
	"unsafe"

	windowdb "repro"
	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pagestore"
	"repro/internal/paper"
	"repro/internal/reorder"
	"repro/internal/spill"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/window"
	"repro/internal/xsort"
)

// layers accumulates per-layer metric values by name.
type layers map[string]float64

// medianOf runs f reps times and returns the median of what it reports.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// allocDelta reports bytes and objects allocated while f ran.
func allocDelta(f func() error) (bytes, objects float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs), err
}

const mb = 1 << 20

// microLayers times the packages beneath the executor directly, on the
// workload's own fixture table: value compare/hash and the tuple codec,
// the sorter in memory and under the spilling budget, spill pages, window
// evaluation over a pre-sorted input, and the planner.
func microLayers(t *storage.Table, entry *catalog.Entry, reps int, out layers) error {
	n := float64(t.Len())
	itemDate := attrs.AscSeq(paper.Item, paper.Date)

	// storage
	out["storage.value_bytes"] = float64(unsafe.Sizeof(storage.Value{}))
	var sink int
	out["storage.compare_ns"], _ = medianOf(reps, func() (float64, error) {
		start := time.Now()
		for i := 1; i < t.Len(); i++ {
			sink += storage.CompareSeq(t.Rows[i-1], t.Rows[i], itemDate)
		}
		return float64(time.Since(start).Nanoseconds()) / (n - 1), nil
	})
	var encoded []byte
	offsets := make([]int, 0, t.Len())
	out["storage.encode_ns_per_tuple"], _ = medianOf(reps, func() (float64, error) {
		encoded, offsets = encoded[:0], offsets[:0]
		start := time.Now()
		for _, row := range t.Rows {
			offsets = append(offsets, len(encoded))
			encoded = storage.AppendTuple(encoded, row)
		}
		return float64(time.Since(start).Nanoseconds()) / n, nil
	})
	var err error
	out["storage.decode_ns_per_tuple"], err = medianOf(reps, func() (float64, error) {
		start := time.Now()
		for _, off := range offsets {
			if _, _, err := storage.DecodeTuple(encoded[off:]); err != nil {
				return 0, fmt.Errorf("storage.DecodeTuple: %w", err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / n, nil
	})
	if err != nil {
		return err
	}
	var hsink uint64
	out["storage.hash_ns"], _ = medianOf(reps, func() (float64, error) {
		start := time.Now()
		for _, row := range t.Rows {
			h := uint64(fnvOffset)
			for _, v := range row {
				h = storage.HashValueFNV(h, v)
			}
			hsink += h
		}
		return float64(time.Since(start).Nanoseconds()) / (n * float64(t.Schema.Len())), nil
	})
	_ = sink + int(hsink)

	// xsort, on (item, date): once with no budget, once under the
	// chain_spill budget for this table.
	sortOnce := func(mem int) (ms float64, st xsort.Stats, allocMB float64, err error) {
		var cmps int64
		sorter := &xsort.Sorter{Key: itemDate, MemoryBytes: mem, Store: pagestore.NewMem(blockSize, &pagestore.Stats{}), Comparisons: &cmps}
		input := append([]storage.Tuple(nil), t.Rows...)
		start := time.Now()
		bytes, _, err := allocDelta(func() error {
			_, st, err = sorter.Sort(xsort.SliceInput(input), len(input))
			return err
		})
		return msSince(start), st, bytes / mb, err
	}
	out["xsort.inmem_sort_ms"], err = medianOf(reps, func() (float64, error) {
		ms, _, _, err := sortOnce(0)
		return ms, err
	})
	if err != nil {
		return fmt.Errorf("xsort in memory: %w", err)
	}
	out["xsort.external_sort_ms"], err = medianOf(reps, func() (float64, error) {
		ms, st, alloc, err := sortOnce(spillMemBytes(t))
		out["xsort.comparisons"] = float64(st.Comparisons)
		out["xsort.initial_runs"] = float64(st.InitialRuns)
		out["xsort.merge_passes"] = float64(st.MergePasses)
		out["xsort.alloc_mb"] = alloc
		return ms, err
	})
	if err != nil {
		return fmt.Errorf("xsort external: %w", err)
	}

	// spill + pagestore
	var file *pagestore.File
	out["spill.write_ns_per_tuple"], err = medianOf(reps, func() (float64, error) {
		stats := &pagestore.Stats{}
		w, err := spill.NewWriter(pagestore.NewMem(blockSize, stats))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, row := range t.Rows {
			if err := w.Write(row); err != nil {
				return 0, err
			}
		}
		if file, err = w.Finish(); err != nil {
			return 0, err
		}
		ns := float64(time.Since(start).Nanoseconds()) / n
		out["pagestore.blocks_per_mb"] = float64(file.Blocks()) / (float64(stats.BytesWritten()) / mb)
		return ns, nil
	})
	if err != nil {
		return fmt.Errorf("spill write: %w", err)
	}
	out["spill.read_ns_per_tuple"], err = medianOf(reps, func() (float64, error) {
		r, err := spill.NewReader(file)
		if err != nil {
			return 0, err
		}
		defer r.Close()
		start := time.Now()
		for {
			_, ok, err := r.Next()
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
		}
		return float64(time.Since(start).Nanoseconds()) / n, nil
	})
	if err != nil {
		return fmt.Errorf("spill read: %w", err)
	}

	// window, over the fixture sorted once on (item, date, order number)
	presorted := append([]storage.Tuple(nil), t.Rows...)
	presorted, _, err = (&xsort.Sorter{Key: attrs.AscSeq(paper.Item, paper.Date, t.Schema.MustCol("ws_order_number")),
		Store: pagestore.NewMem(blockSize, &pagestore.Stats{})}).SortTuples(presorted)
	if err != nil {
		return fmt.Errorf("window presort: %w", err)
	}
	const over = ` OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_order_number`
	for _, w := range []struct{ metric, call string }{
		{"window.rank_ns_per_row", `rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk)`},
		{"window.rows_frame_ns_per_row", `sum(ws_quantity)` + over + ` ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)`},
		{"window.range_frame_ns_per_row", `sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk RANGE BETWEEN 10 PRECEDING AND CURRENT ROW)`},
		{"window.minmax_frame_ns_per_row", `min(ws_sales_price)` + over + ` ROWS BETWEEN 50 PRECEDING AND CURRENT ROW)`},
		{"window.leadlag_ns_per_row", `lag(ws_sales_price, 1)` + over + `)`},
	} {
		specs, err := bindWindows("SELECT "+w.call+" AS w FROM web_sales", t.Schema)
		if err != nil {
			return fmt.Errorf("%s: %w", w.metric, err)
		}
		eval := func() error {
			s, err := window.Evaluate(stream.FromTuples(presorted), specs[0])
			if err != nil {
				return err
			}
			_, err = stream.Collect(s)
			return err
		}
		out[w.metric], err = medianOf(reps, func() (float64, error) {
			start := time.Now()
			err := eval()
			return float64(time.Since(start).Nanoseconds()) / n, err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.metric, err)
		}
		if w.metric == "window.rank_ns_per_row" {
			bytes, _, err := allocDelta(eval)
			if err != nil {
				return err
			}
			out["window.alloc_b_per_row"] = bytes / n
		}
	}

	// core: the planner on the paper's smallest and largest chains, with
	// this table's catalog statistics.
	for metric, specs := range map[string][]window.Spec{"core.plan_us_q6": paper.Q6(), "core.plan_us_q9": paper.Q9()} {
		opt := core.Options{Cost: entry.CostParams(spillMemBytes(t), blockSize)}
		out[metric], err = medianOf(reps, func() (float64, error) {
			start := time.Now()
			_, err := core.CSO(paper.WFs(specs), core.Unordered(), opt)
			return float64(time.Since(start).Microseconds()), err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", metric, err)
		}
	}
	return nil
}

// bindWindows parses src and binds its window items against schema, in
// SELECT order — the order plan steps refer to them by.
func bindWindows(src string, schema *storage.Schema) ([]window.Spec, error) {
	q, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	var specs []window.Spec
	for _, item := range q.Items {
		if item.Window == nil {
			continue
		}
		name := item.Alias
		if name == "" {
			name = item.Window.Func
		}
		spec, err := sql.BindWindowCall(item.Window, schema, name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// codecLayers times the wire codec on rows: the columnar batch build and
// frame encode, then decode and tuple rebuild.
func codecLayers(rows []storage.Tuple, reps int) (encNs, decNs, bytesPerRow float64, err error) {
	if len(rows) == 0 {
		return 0, 0, 0, nil
	}
	n, arity := float64(len(rows)), len(rows[0])
	var wire []byte
	encNs, err = medianOf(reps, func() (float64, error) {
		start := time.Now()
		b, err := stream.BatchFromTuples(rows, arity)
		if err != nil {
			return 0, err
		}
		wire = stream.AppendBatch(wire[:0], b)
		return float64(time.Since(start).Nanoseconds()) / n, nil
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("stream encode: %w", err)
	}
	decNs, err = medianOf(reps, func() (float64, error) {
		start := time.Now()
		b, err := stream.DecodeBatch(wire, arity)
		if err != nil {
			return 0, err
		}
		_ = b.Tuples()
		return float64(time.Since(start).Nanoseconds()) / n, nil
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("stream decode: %w", err)
	}
	return encNs, decNs, float64(len(wire)) / n, nil
}

// stepCost is one chain step replayed on its own: the reorder drained to
// rows, then the window function evaluated over those rows.
type stepCost struct {
	kind      core.ReorderKind
	reorderMs float64
	windowMs  float64
	blocks    int64
	spilled   int // HS buckets spilled
	units     int // SS sort units
}

// replayChain executes plan step by step through the reorder and window
// packages' exported entry points — the same calls exec.Run makes, with
// each step's reorder materialized before its window function runs so the
// two are timed apart.
func replayChain(table *storage.Table, specs []window.Spec, plan *core.Plan, cfg exec.Config) ([]stepCost, error) {
	stats := &pagestore.Stats{}
	store := pagestore.NewMem(cfg.BlockSize, stats)
	rcfg := reorder.Config{MemoryBytes: cfg.MemoryBytes, Store: store}
	tableBlocks := int64(table.ByteSize()) / int64(cfg.BlockSize)
	// Like the executor, copy the input once into rows with room for the
	// chain's derived columns, so evaluation extends them in place.
	arity, stride := table.Schema.Len(), table.Schema.Len()+len(plan.Steps)
	arena := make([]storage.Value, table.Len()*stride)
	rows := make([]stream.Row, table.Len())
	for i, t := range table.Rows {
		row := storage.Tuple(arena[i*stride : i*stride+arity : (i+1)*stride])
		copy(row, t)
		rows[i] = stream.Row{Tuple: row, Boundary: i == 0}
	}
	var err error
	var out []stepCost
	for _, step := range plan.Steps {
		sc := stepCost{kind: step.Reorder}
		b0 := stats.TotalBlocks()
		start := time.Now()
		var reordered stream.Stream
		var ss *reorder.SSStats
		switch step.Reorder {
		case core.ReorderNone:
			reordered = stream.FromRows(rows)
		case core.ReorderFS:
			reordered, _, err = reorder.FullSort(stream.FromRows(rows), step.SortKey, rcfg)
		case core.ReorderHS:
			opt := reorder.HSOptions{HashKey: step.HashKey.IDs(), SortKey: step.SortKey}
			if cfg.Distinct != nil {
				opt.DistinctHint = cfg.Distinct(step.HashKey)
			}
			opt.Buckets = int(core.HSBucketCount(opt.DistinctHint, tableBlocks, int64(cfg.MemoryBytes)/int64(cfg.BlockSize)))
			var st reorder.HSStats
			reordered, st, err = reorder.HashedSort(stream.FromRows(rows), opt, rcfg)
			sc.spilled = st.SpilledBuckets
		case core.ReorderSS:
			opt := reorder.SSOptions{Alpha: step.Alpha, Beta: step.Beta}
			if step.In.Grouped {
				opt.SegmentBy = step.In.X.IDs()
			}
			reordered, ss, err = reorder.SegmentedSort(stream.FromRows(rows), opt, rcfg)
		}
		if err != nil {
			return nil, fmt.Errorf("wf%d %s: %w", step.WF.ID, step.Reorder, err)
		}
		if rows, err = stream.Collect(reordered); err != nil {
			return nil, fmt.Errorf("wf%d %s drain: %w", step.WF.ID, step.Reorder, err)
		}
		sc.reorderMs = msSince(start)
		sc.blocks = stats.TotalBlocks() - b0
		if ss != nil {
			sc.units = ss.Units
		}
		start = time.Now()
		evaluated, err := window.Evaluate(stream.FromRows(rows), specs[step.WF.ID])
		if err != nil {
			return nil, fmt.Errorf("wf%d evaluate: %w", step.WF.ID, err)
		}
		if rows, err = stream.Collect(evaluated); err != nil {
			return nil, fmt.Errorf("wf%d evaluate: %w", step.WF.ID, err)
		}
		sc.windowMs = msSince(start)
		out = append(out, sc)
	}
	return out, nil
}

// engineLadder measures the rungs beneath one engine, statement by
// statement, and writes per-operation values to out: the mean over the
// statements of each statement's median. svcQuery, when non-nil, is the
// in-process service above the engine and is timed as the rung over it,
// with the wire codec timed on each statement's result rows.
func engineLadder(ctx context.Context, eng *windowdb.Engine, stmts []statement, svcQuery windowdb.Queryer, reps int, tr *tracer, result layers) error {
	rc := eng.ResolvedConfig()
	engineParent := "" // the engine is the top rung unless a service sits above it
	if svcQuery != nil {
		engineParent = "service.query"
	}
	out := layers{} // sums over statements
	defer func() {
		for k, v := range out {
			result[k] = v / float64(len(stmts))
		}
	}()
	for _, st := range stmts {
		entry, err := eng.Stats(st.Table)
		if err != nil {
			return err
		}
		base := entry.Table()
		input := base
		if st.Where != "" {
			res, err := eng.Query("SELECT * FROM " + st.Table + " WHERE " + st.Where)
			if err != nil {
				return fmt.Errorf("%s: filtered input: %w", st.ID, err)
			}
			input = res.Table
		}
		specs, err := bindWindows(st.SQL, base.Schema)
		if err != nil {
			return fmt.Errorf("%s: %w", st.ID, err)
		}
		prep, err := eng.Prepare(st.SQL)
		if err != nil {
			return fmt.Errorf("%s: %w", st.ID, err)
		}
		cfg := exec.Config{MemoryBytes: rc.SortMemBytes, BlockSize: rc.BlockSize, Parallelism: 1, Distinct: entry.Distinct}

		var parseUs, canonUs, prepareUs, engineMs, executeMs, runMs, svcMs []float64
		var allocB, allocN []float64
		perKind := map[core.ReorderKind][]float64{}
		var windowMs []float64
		var last []stepCost
		var result []storage.Tuple
		for r := 0; r < reps; r++ {
			start := time.Now()
			if _, err := sql.Parse(st.SQL); err != nil {
				return fmt.Errorf("%s: %w", st.ID, err)
			}
			parseUs = append(parseUs, msSince(start)*1000)
			start = time.Now()
			if _, err := sql.Canonical(st.SQL); err != nil {
				return fmt.Errorf("%s: %w", st.ID, err)
			}
			canonUs = append(canonUs, msSince(start)*1000)

			if svcQuery != nil {
				ms, err := tr.timed("service.query", "client.query", st.ID, r, func() error {
					return drain(ctx, svcQuery, st.SQL, false).Err
				})
				if err != nil {
					return fmt.Errorf("%s: service: %w", st.ID, err)
				}
				svcMs = append(svcMs, ms)
			}
			ms, err := tr.timed("windowdb.query", engineParent, st.ID, r, func() error {
				rows, err := eng.QueryContext(ctx, st.SQL)
				if err != nil {
					return err
				}
				result = result[:0]
				for rows.Next() {
					result = append(result, rows.Row())
				}
				return rows.Err()
			})
			if err != nil {
				return fmt.Errorf("%s: engine: %w", st.ID, err)
			}
			engineMs = append(engineMs, ms)

			ms, err = tr.timed("sql.prepare", "windowdb.query", st.ID, r, func() error {
				_, err := eng.Prepare(st.SQL)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: prepare: %w", st.ID, err)
			}
			prepareUs = append(prepareUs, ms*1000)
			ms, err = tr.timed("sql.execute", "windowdb.query", st.ID, r, func() error {
				_, err := prep.ExecuteContext(ctx)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: execute: %w", st.ID, err)
			}
			executeMs = append(executeMs, ms)

			if prep.Plan() == nil {
				continue
			}
			var bytes, objects float64
			ms, err = tr.timed("exec.run", "sql.execute", st.ID, r, func() (err error) {
				bytes, objects, err = allocDelta(func() error {
					_, _, err := exec.RunContext(ctx, input, specs, prep.Plan(), cfg)
					return err
				})
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: exec.Run: %w", st.ID, err)
			}
			runMs, allocB, allocN = append(runMs, ms), append(allocB, bytes), append(allocN, objects)

			start = time.Now()
			steps, err := replayChain(input, specs, prep.Plan(), cfg)
			if err != nil {
				return fmt.Errorf("%s: chain replay: %w", st.ID, err)
			}
			sums := map[core.ReorderKind]float64{}
			var wsum float64
			at := start
			for i, sc := range steps {
				if sc.kind != core.ReorderNone {
					name := "reorder." + strings.ToLower(sc.kind.String())
					tr.add(fmt.Sprintf("%s step %d", name, i), "exec.run", st.ID, r, at, sc.reorderMs, nil)
					sums[sc.kind] += sc.reorderMs
				}
				at = at.Add(time.Duration(sc.reorderMs * float64(time.Millisecond)))
				tr.add(fmt.Sprintf("window.evaluate step %d", i), "exec.run", st.ID, r, at, sc.windowMs, nil)
				at = at.Add(time.Duration(sc.windowMs * float64(time.Millisecond)))
				wsum += sc.windowMs
			}
			for _, k := range []core.ReorderKind{core.ReorderFS, core.ReorderHS, core.ReorderSS} {
				perKind[k] = append(perKind[k], sums[k])
			}
			windowMs = append(windowMs, wsum)
			last = steps
		}

		out["sql.parse_us"] += median(parseUs)
		out["sql.canonical_us"] += median(canonUs)
		out["sql.prepare_us"] += median(prepareUs)
		out["engine.query_ms"] += median(engineMs)
		out["sql.execute_ms"] += median(executeMs)
		out["exec.run_ms"] += median(runMs)
		out["exec.alloc_mb_per_op"] += median(allocB) / mb
		out["exec.allocs_per_op"] += median(allocN)
		out["reorder.fs_ms"] += median(perKind[core.ReorderFS])
		out["reorder.hs_ms"] += median(perKind[core.ReorderHS])
		out["reorder.ss_ms"] += median(perKind[core.ReorderSS])
		out["window.eval_ms"] += median(windowMs)
		for _, sc := range last {
			switch sc.kind {
			case core.ReorderFS:
				out["reorder.fs_blocks"] += float64(sc.blocks)
			case core.ReorderHS:
				out["reorder.hs_blocks"] += float64(sc.blocks)
				out["reorder.hs_spilled_buckets"] += float64(sc.spilled)
			case core.ReorderSS:
				out["reorder.ss_blocks"] += float64(sc.blocks)
				out["reorder.ss_units"] += float64(sc.units)
			}
		}
		if svcQuery != nil {
			out["service.query_ms"] += median(svcMs)
			enc, dec, _, err := codecLayers(result, reps)
			if err != nil {
				return fmt.Errorf("%s: %w", st.ID, err)
			}
			out["stream.codec_ms"] += (enc + dec) * float64(len(result)) / 1e6
		}
	}
	return nil
}

// shardLayers reads the cluster's already-public span trees: per query,
// the coordinator's time is what remains of the query span after the
// slowest node of every phase (a result waits for its slowest shard).
// shard.slowest_node_ms is per operation of the alternating mix, like
// ladder.top_ms above it: the mean of the two routes' medians.
func shardLayers(samples []sample, out layers) {
	var scatterSelf, shuffleSelf, deliver, scatterWait, shuffleWait []float64
	for _, sm := range samples {
		if sm.Public == nil {
			continue
		}
		wait, maxDeliver := slowestPath(sm.Public)
		self := sm.Public.DurationMillis - wait
		if sm.Public.Attrs["route"] == "shuffle" {
			shuffleSelf, shuffleWait = append(shuffleSelf, self), append(shuffleWait, wait)
			deliver = append(deliver, maxDeliver)
		} else {
			scatterSelf, scatterWait = append(scatterSelf, self), append(scatterWait, wait)
		}
	}
	out["shard.scatter_self_ms"] = median(scatterSelf)
	out["shard.shuffle_self_ms"] = median(shuffleSelf)
	out["shard.deliver_ms"] = median(deliver)
	out["shard.slowest_node_ms"] = (median(scatterWait) + median(shuffleWait)) / 2
}

// slowestPath sums, over the sequential phases directly under a cluster
// query span (each shuffle round, then the final fan-out), the slowest
// node's duration; it also returns the longest node-to-node delivery.
func slowestPath(query *trace.Span) (waitMs, maxDeliverMs float64) {
	var finalMax float64
	for _, c := range query.Children {
		switch {
		case strings.HasPrefix(c.Name, "shuffle round"):
			var roundMax float64
			for _, node := range c.Children {
				roundMax = max(roundMax, node.DurationMillis)
				for _, phase := range node.Children {
					if phase.Name == "deliver" {
						maxDeliverMs = max(maxDeliverMs, phase.DurationMillis)
					}
				}
			}
			waitMs += roundMax
		case strings.HasPrefix(c.Name, "node "):
			finalMax = max(finalMax, c.DurationMillis)
		}
	}
	return waitMs + finalMax, maxDeliverMs
}
