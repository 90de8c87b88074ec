package exec

import (
	"unsafe"

	"repro/internal/pagestore"
	"repro/internal/recycle"
	"repro/internal/reorder"
	"repro/internal/storage"
	"repro/internal/window"
)

// workspace is what one run of a chain, or one shared scan, borrows from
// workspaces beside its arena and gives back however it returns: the spill
// store, whose released files wait in it for the next run's Create; the
// counter of the rows the sorts placed by grouping; the evaluator every
// step evaluates with; and the row array's segment starts. So a warm run
// allocates neither a file per spill nor an evaluator buffer per chain.
type workspace struct {
	store   *pagestore.Store
	site    spillSite // what store was made for
	grouped int64
	ev      window.Evaluator
	rows    rowArray
}

// spillSite is where a store's files live: what a run's Config says about
// them.
type spillSite struct {
	blockSize  int
	fileBacked bool
	tempDir    string
}

var workspaces = recycle.NewList((*workspace).bytes)

// getWorkspace borrows a workspace whose store spills where cfg says, with
// its counters at zero.
func getWorkspace(cfg Config) *workspace {
	w := workspaces.Get()
	site := spillSite{blockSize: cfg.blockSize()}
	if cfg.FileBacked {
		site.fileBacked, site.tempDir = true, cfg.TempDir
	}
	if w.store == nil || w.site != site {
		if site.fileBacked {
			w.store = pagestore.NewFileBacked(site.tempDir, site.blockSize, nil)
		} else {
			w.store = pagestore.NewMem(site.blockSize, nil)
		}
		w.site = site
	}
	w.store.Stats().Reset()
	w.grouped = 0
	return w
}

// giveBack clears what of w could hold a row — the row array's headers are
// the arena's, so it drops them — and puts w back. Every spill file of the
// run has been released.
func (w *workspace) giveBack() {
	w.rows = rowArray{starts: w.rows.starts[:0], spare: w.rows.spare[:0]}
	workspaces.Put(w)
}

// bytes is the memory w retains.
func (w *workspace) bytes() int64 {
	n := int64(unsafe.Sizeof(*w)) + w.ev.Bytes() + int64(cap(w.rows.starts)+cap(w.rows.spare))*int64(unsafe.Sizeof(0))
	if w.store != nil {
		n += w.store.Bytes()
	}
	return n
}

// reorderConfig builds what every reorder of the run works with: the unit
// memory, the workspace's store, the arena — whose rows have the chain's
// row width as capacity, so whatever spills comes back with room for every
// derived column still to be appended — and the counters: comparisons and
// the rows the sorts placed by grouping, which applyReorder's details read.
func (w *workspace) reorderConfig(cfg Config, comparisons *int64, arena *storage.TupleArena) reorder.Config {
	return reorder.Config{
		MemoryBytes: cfg.MemoryBytes,
		Store:       w.store,
		Comparisons: comparisons,
		Grouped:     &w.grouped,
		Arena:       arena,
	}
}
