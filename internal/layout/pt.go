package layout

import (
	"sort"

	"s2rdf/internal/dict"
)

// PropertyTable is the Sempala-style unified property table (paper Sec. 4.3):
// one wide row per subject with a column per functional (single-valued)
// predicate. Multi-valued predicates cannot be stored as plain columns
// without either losing solution combinations or exploding the row count;
// following the original property-table design the paper cites (Wilkinson
// [43]), they are kept in auxiliary two-column tables — here the existing VP
// tables. A star query therefore answers all its functional-predicate
// patterns with a single scan of the wide table (no joins) and joins only
// for the multi-valued predicates, which preserves Sempala's performance
// profile: scan cost is proportional to the full table width.
type PropertyTable struct {
	// Subjects lists every subject, aligned with the value columns.
	Subjects []dict.ID
	// Columns maps a functional predicate to its value column; Null marks
	// subjects without that predicate.
	Columns map[dict.ID][]dict.ID
	// MultiValued reports the predicates that are not stored as columns.
	MultiValued map[dict.ID]bool
	// rowOf maps a subject to its row index.
	rowOf map[dict.ID]int
}

// ptNull marks an absent value in a property-table column.
const ptNull = dict.NoID

// IsFunctional reports whether p is stored as a column.
func (pt *PropertyTable) IsFunctional(p dict.ID) bool {
	_, ok := pt.Columns[p]
	return ok
}

// NumRows returns the number of subjects.
func (pt *PropertyTable) NumRows() int { return len(pt.Subjects) }

// Value returns the value of column p for subject s; ok is false when the
// subject is unknown or has no value.
func (pt *PropertyTable) Value(s, p dict.ID) (dict.ID, bool) {
	row, ok := pt.rowOf[s]
	if !ok {
		return 0, false
	}
	col, ok := pt.Columns[p]
	if !ok {
		return 0, false
	}
	v := col[row]
	if v == ptNull {
		return 0, false
	}
	return v, true
}

// buildPT builds the property table from the dataset's VP tables.
func buildPT(ds *Dataset) *PropertyTable {
	pt := &PropertyTable{
		Columns:     make(map[dict.ID][]dict.ID),
		MultiValued: make(map[dict.ID]bool),
		rowOf:       make(map[dict.ID]int),
	}
	// Classify predicates: functional iff no subject repeats. VP tables
	// are sorted by (s, o), so repeats are adjacent.
	for _, p := range ds.Predicates {
		ss := ds.VP[p].Data[0]
		functional := true
		for i := 1; i < len(ss); i++ {
			if ss[i] == ss[i-1] {
				functional = false
				break
			}
		}
		if !functional {
			pt.MultiValued[p] = true
		}
	}
	// Collect all subjects appearing with any functional predicate.
	for _, p := range ds.Predicates {
		if pt.MultiValued[p] {
			continue
		}
		for _, s := range ds.VP[p].Data[0] {
			if _, ok := pt.rowOf[s]; !ok {
				pt.rowOf[s] = -1 // placeholder; assign after sorting
				pt.Subjects = append(pt.Subjects, s)
			}
		}
	}
	sort.Slice(pt.Subjects, func(i, j int) bool { return pt.Subjects[i] < pt.Subjects[j] })
	for i, s := range pt.Subjects {
		pt.rowOf[s] = i
	}
	// Fill the columns.
	for _, p := range ds.Predicates {
		if pt.MultiValued[p] {
			continue
		}
		col := make([]dict.ID, len(pt.Subjects))
		for i := range col {
			col[i] = ptNull
		}
		vp := ds.VP[p]
		for i, s := range vp.Data[0] {
			col[pt.rowOf[s]] = vp.Data[1][i]
		}
		pt.Columns[p] = col
	}
	return pt
}
