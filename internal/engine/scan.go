package engine

import (
	"fmt"
	"sync/atomic"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/dict"
	"s2rdf/internal/store"
)

// This file implements the late-materializing columnar scan: the compiled
// form of one SPARQL triple pattern (paper Algorithm 2), evaluated
// column-at-a-time against the stored table instead of row-at-a-time.
//
// The pass works on row *indices* until the very end:
//
//  1. equality conditions on the table's sort column become one binary
//     search, narrowing the scan to a contiguous run without touching rows;
//     a key set (the run-time semi-join: the join keys of the intermediate
//     the scan will be joined with) becomes one binary-searched run per key,
//     and the key-run pass (keyRuns) replaces steps 2–3 for it;
//  2. the surviving range is split across partitions; each partition walks
//     it in ZoneSize chunks, skipping every chunk whose zone map proves a
//     condition cannot hold inside it;
//  3. within a surviving chunk the remaining conditions, the optional
//     bit-vector pre-selection (the ExtVP bit-vector representation) and
//     the equal-variable check each run over one column, compacting a
//     []int32 selection vector;
//  4. only then are the selected rows materialized — once, column-wise —
//     into the partition's output Block. An optional late predicate (a
//     pushed-down SPARQL filter) vetoes rows at this boundary.
//
// Rows eliminated in steps 1–2 — outside the binary-searched run or the key
// runs, or in a zone-skipped chunk — are metered as RowsPruned: input the
// scan never had to evaluate. RowsScanned stays the logical input volume (table
// rows, or selected rows under a bit-vector), the quantity the paper's
// input-size argument is stated in.

// ScanCondition restricts a scanned column to a constant.
type ScanCondition struct {
	Col   string
	Value dict.ID
}

// ScanProjection renames a stored column to an output variable.
type ScanProjection struct {
	Col string // column name in the stored table
	As  string // output variable name
}

// ScanSpec describes one table scan: projections for variables, constant
// conditions for bound positions, an optional pre-selection bit vector
// (bit-vector ExtVP reductions), an optional key set for the sort column
// and an optional predicate evaluated on the projected row just before it
// is admitted to the output (pushed-down filters).
type ScanSpec struct {
	Projs []ScanProjection
	Conds []ScanCondition
	Sel   *bitvec.Bitset
	// SelRows is Sel's population, required whenever Sel is set: table
	// selection already knows it, and taking it from there spares the scan
	// a popcount of the whole bitset.
	SelRows int
	// Keys, when non-nil, restricts the table's sort column to these
	// values, sorted ascending and distinct: a semi-join with the
	// intermediate the scan's output will be joined to. An empty non-nil
	// set selects nothing. The table must have a sort column.
	Keys []dict.ID
	Pred func(Row) bool
}

// ScanStats reports one scan's work: Scanned is the metered input volume
// (all table rows, or the selected rows under a bit-vector); Pruned counts
// the table rows eliminated by the sort-column binary searches (the
// constant's run, or the runs of the key set) and zone-map chunk skips
// without evaluating any condition.
type ScanStats struct {
	Scanned int64
	Pruned  int64
}

// scanCond is a resolved condition: column index and required value.
type scanCond struct {
	col int
	val dict.ID
}

// scanPlan resolves projections and conditions against a table's schema,
// rejecting references to columns the table does not have: a silently
// empty scan would mask a compiler bug (it did once — the unresolved-column
// path used to drop every row).
type scanPlan struct {
	schema []string
	srcs   []int
	conds  []scanCond
	equal  [][2]int // pairs of source columns that must be equal
}

func planScan(t *store.Table, projs []ScanProjection, conds []ScanCondition) (scanPlan, error) {
	var pl scanPlan
	pl.conds = make([]scanCond, len(conds))
	for i, cd := range conds {
		ci := t.ColIndex(cd.Col)
		if ci < 0 {
			return pl, fmt.Errorf("engine: Scan condition on unknown column %q of table %s", cd.Col, t.Name)
		}
		pl.conds[i] = scanCond{col: ci, val: cd.Value}
	}
	// Deduplicate projections that target the same output variable; the
	// schema holds at most a handful of names, so a linear probe beats a
	// per-scan map allocation.
	for _, pr := range projs {
		src := t.ColIndex(pr.Col)
		if src < 0 {
			return pl, fmt.Errorf("engine: Scan projection of unknown column %q of table %s", pr.Col, t.Name)
		}
		if prev := indexOf(pl.schema, pr.As); prev >= 0 {
			pl.equal = append(pl.equal, [2]int{pl.srcs[prev], src})
			continue
		}
		pl.schema = append(pl.schema, pr.As)
		pl.srcs = append(pl.srcs, src)
	}
	return pl, nil
}

// sortedRun narrows [lo, hi) to the run where col equals v, by binary
// search; col must be non-decreasing. Hand-rolled (no sort.Search closures)
// so the scan's hot path stays allocation-free.
func sortedRun(col []dict.ID, lo, hi int, v dict.ID) (int, int) {
	l, h := lo, hi
	for l < h {
		m := int(uint(l+h) >> 1)
		if col[m] < v {
			l = m + 1
		} else {
			h = m
		}
	}
	first := l
	h = hi
	for l < h {
		m := int(uint(l+h) >> 1)
		if col[m] <= v {
			l = m + 1
		} else {
			h = m
		}
	}
	return first, l
}

// ScanTable reads a stored table under spec and produces a block-partitioned
// relation plus the scan's work statistics. A condition or projection naming
// a column the table does not have returns an error: that is a query-compiler
// bug (or a query the compiler could not resolve), not an empty result — and
// not a process-killing panic either.
//
// If two projections reference the same source column position implicitly
// via equal variable names (e.g. pattern ?x p ?x), rows where the columns
// differ are dropped and the duplicate column is projected once.
func (x *Exec) ScanTable(t *store.Table, spec ScanSpec) (*Relation, ScanStats, error) {
	c := x.c
	n := t.NumRows()
	var st ScanStats
	selRows := n
	if spec.Sel != nil {
		selRows = spec.SelRows
	}
	st.Scanned = int64(selRows)
	x.AddRowsScanned(st.Scanned)

	pl, err := planScan(t, spec.Projs, spec.Conds)
	if err != nil {
		return nil, st, err
	}
	if spec.Keys != nil && t.SortCol < 0 {
		return nil, st, fmt.Errorf("engine: Scan keys on table %s, which has no sort column", t.Name)
	}
	rel := newRelation(pl.schema, c.partitions)
	if n == 0 {
		return rel, st, nil
	}

	// Step 1: conditions on the sort column collapse into one binary-searched
	// run; everything outside it is pruned without being read. The slice is
	// freshly allocated by planScan, so in-place compaction is safe.
	lo, hi := 0, n
	conds := pl.conds
	if t.SortCol >= 0 {
		kept := conds[:0]
		for _, cd := range conds {
			if cd.col == t.SortCol {
				lo, hi = sortedRun(t.Data[cd.col], lo, hi, cd.val)
			} else {
				kept = append(kept, cd)
			}
		}
		conds = kept
	}
	if spec.Keys != nil {
		sel, inRuns := x.keyRuns(t, spec, conds, lo, hi)
		// Every metered row outside the key runs is pruned.
		st.Pruned = int64(selRows - inRuns)
		x.addPruned(st.Pruned)
		x.parallel(c.partitions, func(p int) {
			slo, shi := splitRange(len(sel), c.partitions, p)
			if slo < shi {
				rel.Parts[p] = materialize(t, spec, pl, sel[slo:shi])
			}
		})
		x.trackRelation(rel)
		x.addOutput(int64(rel.NumRows()))
		return rel, st, nil
	}
	// Rows outside the binary-searched run are pruned. Under a bit-vector
	// pre-selection only the *selected* rows among them count, so RowsPruned
	// stays a savings figure relative to the selection-based RowsScanned
	// (never exceeding it). A scan the search did not narrow prunes nothing
	// and counts no bits.
	pruned := &x.scanPruned
	switch {
	case lo == 0 && hi == n:
		pruned.Store(0)
	case spec.Sel != nil:
		pruned.Store(int64(selRows - spec.Sel.CountRange(lo, hi)))
	default:
		pruned.Store(int64(n - (hi - lo)))
	}

	// Scans with no surviving conditions bulk-copy the whole range; every
	// other shape compacts a selection vector and gathers once (scanVector).
	simple := spec.Sel == nil && len(pl.equal) == 0 && spec.Pred == nil
	span := hi - lo
	if span == 0 {
		// The binary search proved the scan empty; all partitions stay nil.
		st.Pruned = pruned.Load()
		x.addPruned(st.Pruned)
		return rel, st, nil
	}
	x.parallel(c.partitions, func(p int) {
		plo, phi := splitRange(span, c.partitions, p)
		plo, phi = lo+plo, lo+phi
		if plo >= phi {
			return // empty partition: nil entry, like a skipped task
		}
		if simple && len(conds) == 0 {
			// Every row in range survives: bulk column-wise copy, polling
			// cancellation between batches so a huge unconditional scan
			// still stops promptly.
			out := NewBlock(len(pl.srcs), phi-plo)
			for b := plo; b < phi; b += cancelBatch {
				if x.Cancelled() {
					break
				}
				bh := b + cancelBatch
				if bh > phi {
					bh = phi
				}
				out.AppendColumnsRange(t.Data, pl.srcs, b, bh)
			}
			rel.Parts[p] = out
			return
		}
		rel.Parts[p] = x.scanVector(t, spec, pl, conds, plo, phi, pruned)
	})
	st.Pruned = pruned.Load()
	x.addPruned(st.Pruned)
	x.trackRelation(rel)
	x.addOutput(int64(rel.NumRows()))
	return rel, st, nil
}

// keyRuns is the key-set form of steps 1–3. Each key narrows [lo, hi) to
// its binary-searched run on the sort column; the keys ascend, so every
// search starts where the previous run ended. Inside the runs only, the
// bit-vector pre-selection (walked word by word) and the remaining constant
// conditions compact one selection vector. inRuns counts the metered rows
// the runs held (selected rows under a bit-vector); everything else is
// pruned.
func (x *Exec) keyRuns(t *store.Table, spec ScanSpec, conds []scanCond, lo, hi int) (sel []int32, inRuns int) {
	col := t.Data[t.SortCol]
	walked, poll := 0, 0
	for _, k := range spec.Keys {
		if lo >= hi {
			break // the remaining keys lie past the table's last row
		}
		// One cancellation poll per cancelBatch keys or rows walked.
		if walked >= poll {
			if x.Cancelled() {
				break
			}
			poll = walked + cancelBatch
		}
		a, b := sortedRun(col, lo, hi, k)
		lo = b
		walked += 1 + b - a
		base := len(sel)
		if spec.Sel != nil {
			sel = spec.Sel.AppendSet(sel, a, b)
		} else {
			for i := a; i < b; i++ {
				sel = append(sel, int32(i))
			}
		}
		inRuns += len(sel) - base
		sel = filterConds(t, conds, sel, base)
	}
	return sel, inRuns
}

// filterConds compacts sel[base:] to the rows satisfying every condition.
func filterConds(t *store.Table, conds []scanCond, sel []int32, base int) []int32 {
	for _, cd := range conds {
		col, v := t.Data[cd.col], cd.val
		k := base
		for _, ri := range sel[base:] {
			if col[ri] == v {
				sel[k] = ri
				k++
			}
		}
		sel = sel[:k]
	}
	return sel
}

// zoneSkips reports whether zone z of the table provably excludes any of the
// condition values.
func zoneSkips(t *store.Table, conds []scanCond, z int) bool {
	for _, cd := range conds {
		if cd.col < len(t.Meta) && t.Meta[cd.col].ZoneSkips(z, cd.val) {
			return true
		}
	}
	return false
}

// scanVector is the single conditioned-scan pass: steps 2+3 compact a
// []int32 selection vector column-at-a-time over the surviving zones
// (constant conditions, the optional bit-vector pre-selection, the
// equal-variable check), step 4 materializes the selected rows exactly once
// — a column-wise gather, or through the late predicate's scratch row.
func (x *Exec) scanVector(t *store.Table, spec ScanSpec, pl scanPlan, conds []scanCond, plo, phi int, pruned *atomic.Int64) *Block {
	// Size the vector from the pre-selection's population when there is
	// one (a sparse bit-vector reduction selects far fewer rows than the
	// span), prorated to this partition's share of the table rather than
	// popcounted; without one, grow from empty — conditioned scans are
	// usually selective, and a span-sized buffer would cost 4 bytes per row
	// of a possibly huge run.
	cap0 := 0
	if spec.Sel != nil {
		cap0 = int(int64(spec.SelRows) * int64(phi-plo) / int64(t.NumRows()))
	}
	sel := make([]int32, 0, cap0)
	zonePruned := 0
	// As in scanDirect, one cancellation poll per ≤ZoneSize-row chunk keeps
	// the engine's row-batch granularity.
	for zlo := plo; zlo < phi; {
		zhi := (zlo/store.ZoneSize + 1) * store.ZoneSize
		if zhi > phi {
			zhi = phi
		}
		if x.Cancelled() {
			break
		}
		if zoneSkips(t, conds, zlo/store.ZoneSize) {
			if spec.Sel != nil {
				// Under a bit-vector pre-selection, only selected rows
				// count as pruned: RowsPruned must stay comparable to the
				// Sel.Count()-based RowsScanned.
				zonePruned += spec.Sel.CountRange(zlo, zhi)
			} else {
				zonePruned += zhi - zlo
			}
			zlo = zhi
			continue
		}
		base := len(sel)
		first := 0
		if spec.Sel != nil {
			sel = spec.Sel.AppendSet(sel, zlo, zhi)
		} else if len(conds) > 0 {
			col, v := t.Data[conds[0].col], conds[0].val
			for i := zlo; i < zhi; i++ {
				if col[i] == v {
					sel = append(sel, int32(i))
				}
			}
			first = 1
		} else {
			for i := zlo; i < zhi; i++ {
				sel = append(sel, int32(i))
			}
		}
		sel = filterConds(t, conds[first:], sel, base)
		zlo = zhi
	}
	pruned.Add(int64(zonePruned))
	return materialize(t, spec, pl, sel)
}

// materialize is step 4: it drops the rows of sel failing the
// equal-variable check, then gathers the rest column-wise — or, under a
// late predicate, row by row through a scratch row the predicate vetoes.
// It compacts sel in place.
func materialize(t *store.Table, spec ScanSpec, pl scanPlan, sel []int32) *Block {
	for _, eq := range pl.equal {
		a, b := t.Data[eq[0]], t.Data[eq[1]]
		k := 0
		for _, ri := range sel {
			if a[ri] == b[ri] {
				sel[k] = ri
				k++
			}
		}
		sel = sel[:k]
	}
	if spec.Pred == nil {
		out := NewBlock(len(pl.srcs), len(sel))
		out.AppendColumnsSelected(t.Data, pl.srcs, sel)
		return out
	}
	out := NewBlock(len(pl.srcs), 0)
	scratch := make(Row, len(pl.srcs))
	for _, ri := range sel {
		for j, src := range pl.srcs {
			scratch[j] = t.Data[src][ri]
		}
		if spec.Pred(scratch) {
			out.Append(scratch)
		}
	}
	return out
}
