package engine

import (
	"fmt"
	"slices"

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
//     and the key-run pass (keyRuns) replaces step 2 for it;
//  2. the surviving range is split across partitions; in each, the
//     remaining conditions, the optional bit-vector pre-selection (the
//     ExtVP bit-vector representation) and the equal-variable check each
//     run over one column, compacting a []int32 selection vector (pooled
//     scratch, see scratch.go);
//  3. the selection vector is the partition's output: a lazy block over
//     the table's columns (tableView), whose values later operators read
//     through the row numbers and gather only where they need them
//     contiguous. An optional late predicate (a pushed-down SPARQL filter)
//     vetoes rows at this boundary instead, and those that pass are copied.
//
// Two shapes skip the checks: a range with nothing left to check shares the
// table's column slices outright, with no copy, and a bit-vector
// pre-selection with nothing else to check lists its set bits' row numbers
// straight from the bitset's words.
//
// Rows eliminated in step 1 — outside the binary-searched run or the key
// runs — are metered as RowsPruned: input the scan never had to evaluate.
// RowsScanned stays the logical input volume (table rows, or selected rows
// under a bit-vector), the quantity the paper's input-size argument is
// stated in.

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
// constant's run, or the runs of the key set) without evaluating any
// condition.
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
	// table and view are what every partition's view shares (viewOf): the
	// stored table as a block, and the projected columns located in it.
	table *Block
	view  []colSrc
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

// viewOf sets pl's view fields for table t, before a scan that hands on
// row ids (tableView).
func (pl *scanPlan) viewOf(t *store.Table) {
	pl.table = &Block{cols: t.Data, n: t.NumRows()}
	pl.view = make([]colSrc, len(pl.srcs))
	for j, src := range pl.srcs {
		pl.view[j] = colSrc{0, src}
	}
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
	// Every shape but an unconditioned range and a late predicate hands on
	// row ids over the table.
	if spec.Pred == nil && (spec.Keys != nil || spec.Sel != nil || len(pl.conds) > 0 || len(pl.equal) > 0) {
		pl.viewOf(t)
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
		sc := getScratch()
		defer sc.put()
		sel, inRuns := x.keyRuns(t, spec, conds, lo, hi, sc.a)
		sc.a = sel
		// Every metered row outside the key runs is pruned.
		st.Pruned = int64(selRows - inRuns)
		x.AddRowsPruned(st.Pruned)
		if spec.Pred == nil {
			sel = slices.Clone(sel) // the views keep it
		}
		x.parallel(c.partitions, len(sel), func(p int) {
			slo, shi := splitRange(len(sel), c.partitions, p)
			if slo < shi {
				rel.Parts[p] = materialize(t, spec, pl, sel[slo:shi:shi])
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
	switch {
	case lo == 0 && hi == n:
	case spec.Sel != nil:
		st.Pruned = int64(selRows - spec.Sel.CountRange(lo, hi))
	default:
		st.Pruned = int64(n - (hi - lo))
	}
	x.AddRowsPruned(st.Pruned)

	// Scans with no surviving conditions share the range's column slices,
	// or list a bit-vector pre-selection's row numbers straight from its
	// words; every other shape compacts a selection vector (scanVector).
	simple := len(conds) == 0 && len(pl.equal) == 0 && spec.Pred == nil
	span := hi - lo
	if span == 0 {
		// The binary search proved the scan empty; all partitions stay nil.
		return rel, st, nil
	}
	x.parallel(c.partitions, span, func(p int) {
		plo, phi := splitRange(span, c.partitions, p)
		plo, phi = lo+plo, lo+phi
		if plo >= phi {
			return // empty partition: nil entry, like a skipped task
		}
		switch {
		case simple && spec.Sel != nil:
			rel.Parts[p] = x.bitsView(pl, spec.Sel, plo, phi)
		case simple:
			// Every row in range survives: the block is the table's own
			// column slices, capped so that nothing can append into them.
			blk := &Block{cols: make([][]dict.ID, len(pl.srcs)), n: phi - plo}
			for j, src := range pl.srcs {
				blk.cols[j] = t.Data[src][plo:phi:phi]
			}
			rel.Parts[p] = blk
		default:
			rel.Parts[p] = x.scanVector(t, spec, pl, conds, plo, phi)
		}
	})
	// A range's shared slices are accounted at their size too: the budget
	// bounds the blocks a query holds, wherever their storage lives.
	x.trackRelation(rel)
	x.addOutput(int64(rel.NumRows()))
	return rel, st, nil
}

// keyRuns is the key-set form of steps 1–2. Each key narrows [lo, hi) to
// its binary-searched run on the sort column; the keys ascend, so every
// search starts where the previous run ended. Inside the runs only, the
// bit-vector pre-selection (walked word by word) and the remaining constant
// conditions compact one selection vector. inRuns counts the metered rows
// the runs held (selected rows under a bit-vector); everything else is
// pruned. The selected rows are appended to sel.
func (x *Exec) keyRuns(t *store.Table, spec ScanSpec, conds []scanCond, lo, hi int, sel []int32) (_ []int32, inRuns int) {
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

// scanVector is the single conditioned-scan pass: step 2 compacts a
// []int32 selection vector column-at-a-time over [plo, phi) (constant
// conditions, the optional bit-vector pre-selection, the equal-variable
// check), step 3 hands it on (materialize).
func (x *Exec) scanVector(t *store.Table, spec ScanSpec, pl scanPlan, conds []scanCond, plo, phi int) *Block {
	sc := getScratch()
	defer sc.put()
	sel := sc.a
	// One cancellation poll per cancelBatch rows of range, the engine's
	// row-batch granularity.
	for lo := plo; lo < phi; lo += cancelBatch {
		if x.Cancelled() {
			break
		}
		hi := min(lo+cancelBatch, phi)
		base := len(sel)
		first := 0
		if spec.Sel != nil {
			sel = spec.Sel.AppendSet(sel, lo, hi)
		} else if len(conds) > 0 {
			col, v := t.Data[conds[0].col], conds[0].val
			for i := lo; i < hi; i++ {
				if col[i] == v {
					sel = append(sel, int32(i))
				}
			}
			first = 1
		} else {
			for i := lo; i < hi; i++ {
				sel = append(sel, int32(i))
			}
		}
		sel = filterConds(t, conds[first:], sel, base)
	}
	sc.a = sel
	if spec.Pred == nil {
		sel = slices.Clone(sel) // the view keeps it
	}
	return materialize(t, spec, pl, sel)
}

// bitsView is steps 2–3 of a bit-vector scan with no condition,
// equal-variable check or late predicate left: it lists the row numbers sel
// marks in [lo, hi) straight from the bitset's words into an exactly sized
// vector, one batch of cancelBatch rows of range at a time, and returns
// them as a view over the table (tableView). A cancelled scan returns an
// empty block.
func (x *Exec) bitsView(pl scanPlan, sel *bitvec.Bitset, lo, hi int) *Block {
	rows := make([]int32, 0, sel.CountRange(lo, hi))
	for b := lo; b < hi; b += cancelBatch {
		if x.Cancelled() {
			return newFixedBlock(len(pl.srcs), 0)
		}
		rows = sel.AppendSet(rows, b, min(b+cancelBatch, hi))
	}
	return tableView(pl, rows)
}

// tableView is a scan's output as row ids: the table rows listed in rows,
// of the scan's projected columns. The view keeps rows.
func tableView(pl scanPlan, rows []int32) *Block {
	if len(rows) == 0 {
		return newFixedBlock(len(pl.srcs), 0)
	}
	return lazyBlock(len(rows), [2]*Block{pl.table}, [2][]int32{rows}, pl.view)
}

// materialize is step 3: it drops the rows of sel failing the
// equal-variable check, then hands the rest on as a view over the table —
// or, under a late predicate, copies them row by row through a scratch row
// the predicate vetoes. It compacts sel in place, and without a predicate
// the view keeps it, so sel must then be no pooled scratch.
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
		return tableView(pl, sel)
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
