package layout

import (
	"sync"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/store"
)

// Lazy ExtVP ("pay as you go", paper Sec. 7): instead of precomputing every
// reduction at load time, compute a reduction the first time a query needs
// it and cache it for later queries. There is no initial loading overhead
// at the cost of a warm-up slowdown until the system converges.
//
// Statistics and row copies are computed separately: EnsureInfo runs only
// the counting pass, so the query planner can reject a candidate table on
// its SF without ever paying for the rows; EnsureTable materializes the
// reduction the planner actually selected.

// LazyExtVP wraps a dataset built without ExtVP and materializes
// reductions on demand. It is safe for concurrent use.
type LazyExtVP struct {
	ds *Dataset
	mu sync.Mutex
	// sets holds the last counted key's P2 and is refilled when a key's P2
	// differs (nil until the first count).
	sets *semiSets
	// counted marks reductions whose statistics were computed (even if
	// empty/equal-to-VP); the rows may still be unmaterialized.
	counted map[ExtKey]bool
	// Computed counts reductions materialized so far (monitoring).
	Computed int
}

// NewLazyExtVP returns a lazy wrapper over ds. The dataset's ExtVP/Info
// maps are extended in place as reductions are computed, so the regular
// query compiler picks them up transparently.
func NewLazyExtVP(ds *Dataset) *LazyExtVP {
	return &LazyExtVP{ds: ds, counted: make(map[ExtKey]bool)}
}

// Dataset returns the wrapped dataset.
func (l *LazyExtVP) Dataset() *Dataset { return l.ds }

// EnsureInfo computes (and caches) the statistics for key if they have not
// been counted yet, without materializing the reduction. Table selection
// consults these first and materializes only the winning candidate.
func (l *LazyExtVP) EnsureInfo(key ExtKey) TableInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ensureInfoLocked(key)
}

// ensureInfoLocked is EnsureInfo under l.mu.
func (l *LazyExtVP) ensureInfoLocked(key ExtKey) TableInfo {
	if l.counted[key] {
		return l.ds.ExtInfo(key)
	}
	l.counted[key] = true
	if l.ds.VP[key.P1] == nil || l.ds.VP[key.P2] == nil {
		return TableInfo{}
	}
	_, info := l.reduce(key)
	if info.SF < 1 {
		// The dataset lock orders the write against concurrent Sizes/Save
		// readers; l.mu already serializes it against other lazy writers.
		l.ds.statsLock()
		l.ds.Info[key] = info
		l.ds.statsUnlock()
		// New statistics landed: caches planning off the old epoch must
		// re-plan to see them.
		l.ds.bumpStatsEpoch()
	}
	return l.ds.ExtInfo(key)
}

// Ensure computes (and caches) the full reduction for key — statistics and,
// when it qualifies, the materialized rows. Callers that only need the
// statistics should use EnsureInfo.
func (l *LazyExtVP) Ensure(key ExtKey) TableInfo {
	_, info := l.EnsureTable(key)
	return info
}

// EnsureTable is EnsureInfo plus the materialized rows (nil when the
// reduction is empty, equal to VP, or cut by the threshold). The rows are
// built at most once and registered in the dataset for later queries.
func (l *LazyExtVP) EnsureTable(key ExtKey) (*store.Table, TableInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	info := l.ensureInfoLocked(key)
	if !info.Materialized {
		return nil, info
	}
	if tbl, ok := l.ds.ExtVP[key]; ok {
		return tbl, info
	}
	sel, _ := l.reduce(key)
	tbl := l.ds.materialize(key, sel, info.Rows)
	l.ds.statsLock()
	l.ds.ExtVP[key] = tbl
	l.ds.statsUnlock()
	l.Computed++
	return tbl, info
}

// reduce runs key's semi-join against the scratch sets, refilling them
// when key.P2 is not the predicate they hold. Must hold l.mu.
func (l *LazyExtVP) reduce(key ExtKey) (*bitvec.Bitset, TableInfo) {
	if l.sets == nil {
		l.sets = newSemiSets(l.ds.Dict.Len())
	}
	l.sets.fill(l.ds, key.P2)
	return l.ds.reduce(key, l.sets, l.ds.Threshold)
}
