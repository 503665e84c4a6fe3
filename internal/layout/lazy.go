package layout

import (
	"sync"

	"s2rdf/internal/store"
)

// Lazy ExtVP ("pay as you go", paper Sec. 7): instead of materializing every
// reduction at load time, build a reduction's rows the first time a query
// selects it and keep them for later queries.
//
// Only the rows are deferred. NewLazyExtVP runs the eager build's counting
// loop with row retention off, so every candidate's statistics are in
// Dataset.Info before the store serves, table selection sees exactly what
// an eager store sees, and nothing writes the dataset afterwards.

// LazyExtVP wraps a dataset built without ExtVP and builds the rows of
// qualifying reductions on demand. It is safe for concurrent use.
type LazyExtVP struct {
	ds *Dataset
	mu sync.Mutex
	// sets holds the last built key's P2 and is refilled when a key's P2
	// differs (nil until the first build).
	sets *semiSets
	// tables holds the reductions built so far.
	tables map[ExtKey]*store.Table
	// Computed counts reductions built so far (monitoring).
	Computed int
}

// NewLazyExtVP counts the statistics of every ExtVP candidate of ds, which
// must have been built without ExtVP, and returns the wrapper that builds
// their rows on demand.
func NewLazyExtVP(ds *Dataset) *LazyExtVP {
	ds.buildExtVP(Options{Threshold: ds.Threshold}, false)
	return &LazyExtVP{ds: ds, tables: make(map[ExtKey]*store.Table)}
}

// EnsureTable returns the rows of the reduction key, building them on the
// first call; nil when the reduction is empty, equal to VP, or cut by the
// threshold.
func (l *LazyExtVP) EnsureTable(key ExtKey) *store.Table {
	info, ok := l.ds.Info[key]
	if !ok || !info.Materialized {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if tbl, ok := l.tables[key]; ok {
		return tbl
	}
	if l.sets == nil {
		l.sets = newSemiSets(l.ds.Dict.Len())
	}
	tbl := l.ds.rebuild(key, l.sets)
	l.tables[key] = tbl
	l.Computed++
	return tbl
}
