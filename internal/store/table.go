// Package store implements the columnar storage layer of the S2RDF
// reproduction. It plays the role HDFS + Parquet play in the paper: tables
// are stored column-major with dictionary-encoded values, compressed with
// run-length encoding, and persisted to a directory of checksummed files,
// each table's file carrying its schema and scan statistics.
package store

import (
	"fmt"
	"math/bits"
	"slices"

	"s2rdf/internal/dict"
)

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
	// Distinct holds each column's exact distinct-value count (the
	// planner's NDV for bound-term selectivity), 0 when unknown; nil until
	// Finalize runs. Appending rows invalidates it.
	Distinct []int
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

// Append adds one row. The number of values must match the schema. New rows
// invalidate any statistics a previous Finalize computed.
func (t *Table) Append(row ...dict.ID) {
	if len(row) != len(t.Cols) {
		panic(fmt.Sprintf("store: table %s has %d columns, got %d values",
			t.Name, len(t.Cols), len(row)))
	}
	t.SortCol, t.Distinct = -1, nil
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

// Finalize computes the table's statistics in one pass per column: the
// exact distinct-value count and the sort column — the first column whose
// values are non-decreasing, which is how the layout builders emit rows
// (VP/ExtVP/PT sorted by subject, TT by predicate). Call it once a table's
// rows are complete; Append invalidates the result.
func (t *Table) Finalize() { t.finalize(true) }

// FinalizeWithoutNDV computes the sort column but skips the exact
// distinct-value counts of unsorted columns (they cost a bitset or a
// sorted copy per column). Use it for wide derived tables whose NDV nothing
// consults, like the property-table scan view; columns the pass proves
// sorted still get their (free) run-count NDV, all others report 0
// (unknown).
func (t *Table) FinalizeWithoutNDV() { t.finalize(false) }

func (t *Table) finalize(withNDV bool) {
	t.SortCol = -1
	t.Distinct = make([]int, len(t.Data))
	for c, col := range t.Data {
		if len(col) == 0 {
			continue
		}
		// Count value runs while the column is non-decreasing; a sorted
		// column's NDV is its run count.
		runs, i := 1, 1
		for ; i < len(col) && col[i] >= col[i-1]; i++ {
			if col[i] != col[i-1] {
				runs++
			}
		}
		switch {
		case i == len(col):
			t.Distinct[c] = runs
			if t.SortCol < 0 {
				t.SortCol = c
			}
		case withNDV:
			t.Distinct[c] = distinct(col)
		}
	}
}

// distinct counts the distinct values of a non-empty col. When its value
// range spans at most 64 values per row, one pass marks them in a bitset
// of at most 8 bytes per row; a wider range, such as a column holding NoID
// beside small IDs, counts the runs of a sorted copy instead.
func distinct(col []dict.ID) int {
	lo, hi := col[0], col[0]
	for _, v := range col {
		lo, hi = min(lo, v), max(hi, v)
	}
	span := uint64(hi-lo) + 1
	if span/64 > uint64(len(col)) {
		c := slices.Clone(col)
		slices.Sort(c)
		return len(slices.Compact(c))
	}
	seen := make([]uint64, (span+63)/64)
	for _, v := range col {
		v -= lo
		seen[v>>6] |= 1 << (v & 63)
	}
	n := 0
	for _, w := range seen {
		n += bits.OnesCount64(w)
	}
	return n
}

// DistinctOf returns the distinct-value count of the named column, or 0 when
// unknown.
func (t *Table) DistinctOf(name string) int {
	if i := t.ColIndex(name); i >= 0 && i < len(t.Distinct) {
		return t.Distinct[i]
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
