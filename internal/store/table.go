// Package store implements the columnar storage layer of the S2RDF
// reproduction. It plays the role HDFS + Parquet play in the paper: tables
// are stored column-major with dictionary-encoded values, compressed with
// run-length encoding, and persisted to a directory of checksummed files,
// each table's file carrying its schema and scan statistics.
package store

import (
	"fmt"

	"s2rdf/internal/dict"
)

// ZoneSize is the number of rows covered by one zone-map entry: the chunk
// granularity at which scans can skip data from min/max statistics alone,
// playing the role of Parquet's row-group statistics in the paper's setup.
const ZoneSize = 1024

// ColMeta holds the per-column statistics Finalize computes: the exact
// distinct-value count (the planner's NDV for bound-term selectivity) and a
// zone map — the minimum and maximum ID of every ZoneSize-row chunk, which
// scans consult to skip whole chunks that cannot contain a wanted constant.
type ColMeta struct {
	Distinct int
	ZoneMin  []dict.ID
	ZoneMax  []dict.ID
}

// ZoneSkips reports whether the chunk starting at row z*ZoneSize provably
// excludes v.
func (m *ColMeta) ZoneSkips(z int, v dict.ID) bool {
	return z < len(m.ZoneMin) && (v < m.ZoneMin[z] || v > m.ZoneMax[z])
}

// Table is an in-memory columnar table of dictionary IDs.
type Table struct {
	// Name identifies the table (e.g. "VP:follows", "ExtVP:OS:follows|likes").
	Name string
	// Cols holds the column names ("s", "o", and "p" for the triples table).
	Cols []string
	// Data is column-major: Data[c][row].
	Data [][]dict.ID
	// SortCol is the index of the column the rows are sorted by
	// (non-decreasing), or -1 when no sort order is known. Scans binary
	// search equality conditions on this column instead of reading rows.
	SortCol int
	// Meta holds per-column statistics (zone maps, distinct counts), one
	// entry per column; nil until Finalize runs. Appending rows invalidates
	// it.
	Meta []ColMeta
}

// NewTable returns an empty table with the given schema.
func NewTable(name string, cols ...string) *Table {
	data := make([][]dict.ID, len(cols))
	return &Table{Name: name, Cols: cols, Data: data, SortCol: -1}
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Data) == 0 {
		return 0
	}
	return len(t.Data[0])
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Cols) }

// Append adds one row. The number of values must match the schema. New rows
// invalidate any statistics a previous Finalize computed.
func (t *Table) Append(row ...dict.ID) {
	if len(row) != len(t.Cols) {
		panic(fmt.Sprintf("store: table %s has %d columns, got %d values",
			t.Name, len(t.Cols), len(row)))
	}
	t.SortCol, t.Meta = -1, nil
	for c, v := range row {
		t.Data[c] = append(t.Data[c], v)
	}
}

// Col returns the named column, or nil when absent.
func (t *Table) Col(name string) []dict.ID {
	for i, c := range t.Cols {
		if c == name {
			return t.Data[i]
		}
	}
	return nil
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Row materializes one row (allocates).
func (t *Table) Row(i int) []dict.ID {
	row := make([]dict.ID, len(t.Data))
	for c := range t.Data {
		row[c] = t.Data[c][i]
	}
	return row
}

// Finalize computes the table's statistics in one pass per column: the zone
// map (min/max per ZoneSize-row chunk), the exact distinct-value count, and
// the sort column — the first column whose values are non-decreasing, which
// is how the layout builders emit rows (VP/ExtVP/PT sorted by subject, TT by
// predicate). Call it once a table's rows are complete; Append invalidates
// the result.
func (t *Table) Finalize() { t.finalize(true) }

// FinalizeZones computes the sort column and zone maps but skips the exact
// distinct-value counts of unsorted columns (they cost a hash set per
// column). Use it for wide derived tables whose NDV nothing consults, like
// the property-table scan view; columns the pass proves sorted still get
// their (free) run-count NDV, all others report 0 (unknown).
func (t *Table) FinalizeZones() { t.finalize(false) }

func (t *Table) finalize(withNDV bool) {
	t.SortCol = -1
	t.Meta = make([]ColMeta, len(t.Data))
	for c, col := range t.Data {
		m := &t.Meta[c]
		n := len(col)
		nz := (n + ZoneSize - 1) / ZoneSize
		m.ZoneMin = make([]dict.ID, nz)
		m.ZoneMax = make([]dict.ID, nz)
		sorted := true
		runs := 0 // value runs; equals NDV when the column is sorted
		for z := 0; z < nz; z++ {
			lo := z * ZoneSize
			hi := lo + ZoneSize
			if hi > n {
				hi = n
			}
			lo2 := lo
			if lo2 == 0 {
				runs++
				lo2 = 1
			}
			zmin, zmax := col[lo], col[lo]
			for i := lo2; i < hi; i++ {
				v := col[i]
				if v < zmin {
					zmin = v
				}
				if v > zmax {
					zmax = v
				}
				if v < col[i-1] {
					sorted = false
				}
				if v != col[i-1] {
					runs++
				}
			}
			m.ZoneMin[z], m.ZoneMax[z] = zmin, zmax
		}
		if sorted {
			m.Distinct = runs
			if t.SortCol < 0 && n > 0 {
				t.SortCol = c
			}
		} else if withNDV {
			seen := make(map[dict.ID]struct{}, runs)
			for _, v := range col {
				seen[v] = struct{}{}
			}
			m.Distinct = len(seen)
		}
	}
}

// ColMetaOf returns the statistics of the named column, or nil when the
// table has no statistics or no such column.
func (t *Table) ColMetaOf(name string) *ColMeta {
	i := t.ColIndex(name)
	if i < 0 || i >= len(t.Meta) {
		return nil
	}
	return &t.Meta[i]
}

// DistinctOf returns the distinct-value count of the named column, or 0 when
// unknown.
func (t *Table) DistinctOf(name string) int {
	if m := t.ColMetaOf(name); m != nil {
		return m.Distinct
	}
	return 0
}

// SortColName returns the name of the sort column, or "" when none is known.
func (t *Table) SortColName() string {
	if t.SortCol < 0 || t.SortCol >= len(t.Cols) {
		return ""
	}
	return t.Cols[t.SortCol]
}
