package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"s2rdf/internal/dict"
)

// Randomized equivalence suite: every columnar operator kernel is checked
// against a naive row-at-a-time reference implementation on random inputs,
// across partition counts and physical strategies. Failures print the seed
// so a shrinking run can be reproduced with -run/-v.

// refJoin is the reference natural join: nested loops over materialized
// rows, output = left row ++ right row minus the join columns.
func refJoin(lSchema, rSchema []string, lrows, rrows []Row) []Row {
	lIdx, rIdx := sharedCols(lSchema, rSchema)
	keep := keepCols(len(rSchema), rIdx)
	var out []Row
	for _, lr := range lrows {
		for _, rr := range rrows {
			match := true
			for k := range lIdx {
				if lr[lIdx[k]] != rr[rIdx[k]] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			row := append(append(Row{}, lr...), make(Row, len(keep))...)
			for i, rc := range keep {
				row[len(lr)+i] = rr[rc]
			}
			out = append(out, row)
		}
	}
	return out
}

// refLeftJoin is the reference left outer join with an optional post-match
// predicate: matched rows that fail pred do not count as matches.
func refLeftJoin(lSchema, rSchema []string, lrows, rrows []Row, pred func(Row) bool) []Row {
	lIdx, rIdx := sharedCols(lSchema, rSchema)
	keep := keepCols(len(rSchema), rIdx)
	var out []Row
	for _, lr := range lrows {
		matched := false
		for _, rr := range rrows {
			ok := true
			for k := range lIdx {
				if lr[lIdx[k]] != rr[rIdx[k]] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			row := append(append(Row{}, lr...), make(Row, len(keep))...)
			for i, rc := range keep {
				row[len(lr)+i] = rr[rc]
			}
			if pred != nil && !pred(row) {
				continue
			}
			out = append(out, row)
			matched = true
		}
		if !matched {
			row := append(Row{}, lr...)
			for range keep {
				row = append(row, Null)
			}
			out = append(out, row)
		}
	}
	return out
}

// refUnion aligns b's columns to a's schema extended with b's new columns,
// padding with Null, and concatenates.
func refUnion(aSchema, bSchema []string, arows, brows []Row) ([]string, []Row) {
	schema := append([]string{}, aSchema...)
	for _, name := range bSchema {
		if indexOf(schema, name) < 0 {
			schema = append(schema, name)
		}
	}
	var out []Row
	align := func(rowSchema []string, rows []Row) {
		for _, r := range rows {
			row := make(Row, len(schema))
			for j, name := range schema {
				row[j] = Null
				if src := indexOf(rowSchema, name); src >= 0 {
					row[j] = r[src]
				}
			}
			out = append(out, row)
		}
	}
	align(aSchema, arows)
	align(bSchema, brows)
	return schema, out
}

// refDistinct removes duplicate rows, keeping first occurrences.
func refDistinct(rows []Row) []Row {
	seen := map[string]bool{}
	var out []Row
	for _, r := range rows {
		k := fmt.Sprint(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, append(Row{}, r...))
		}
	}
	return out
}

// randRows draws up to maxRows random rows over a small value domain so
// joins produce plenty of matches, duplicates and misses.
func randRows(rnd *rand.Rand, arity, maxRows, domain int) []Row {
	n := rnd.Intn(maxRows + 1)
	rows := make([]Row, n)
	for i := range rows {
		row := make(Row, arity)
		for j := range row {
			row[j] = dict.ID(rnd.Intn(domain))
		}
		rows[i] = row
	}
	return rows
}

func checkRows(t *testing.T, desc string, got *Relation, want []Row) {
	t.Helper()
	w := make([]Row, len(want))
	for i, r := range want {
		w[i] = append(Row{}, r...)
	}
	sortRows(w)
	g := sortedRows(got)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows, want %d", desc, len(g), len(w))
	}
	for i := range w {
		if !rowsEqualIDs(g[i], w[i]) {
			t.Fatalf("%s: row %d = %v, want %v", desc, i, g[i], w[i])
		}
	}
}

// TestOperatorEquivalenceRandomized cross-checks Join/LeftJoin/Union/
// Distinct against the reference implementations on random inputs,
// for several partition counts and both physical join strategies.
func TestOperatorEquivalenceRandomized(t *testing.T) {
	schemas := [][2][]string{
		{{"x", "y"}, {"x", "z"}},           // one join column
		{{"x", "y"}, {"y", "x"}},           // two join columns, permuted
		{{"a", "x", "y"}, {"x", "b"}},      // join column not first on left
		{{"x"}, {"x", "z", "w"}},           // key-only left side
		{{"x", "y"}, {"z", "x", "y", "w"}}, // two join columns mid-schema
	}
	pred := func(r Row) bool { return uint64(r[len(r)-1])%3 != 0 }
	for _, parts := range []int{1, 3, 4} {
		c := NewCluster(parts)
		for seed := int64(0); seed < 12; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			sc := schemas[rnd.Intn(len(schemas))]
			lS, rS := sc[0], sc[1]
			lrows := randRows(rnd, len(lS), 60, 8)
			rrows := randRows(rnd, len(rS), 60, 8)
			left := c.exec().FromRows(lS, lrows)
			right := c.exec().FromRows(rS, rrows)
			tag := func(op string) string {
				return fmt.Sprintf("parts=%d seed=%d %s(%v⋈%v)", parts, seed, op, lS, rS)
			}

			for _, strat := range []JoinStrategy{StrategyShuffle, StrategyBroadcast} {
				x := c.NewExec(nil)
				got := x.JoinWith(left, right, strat)
				checkRows(t, tag("Join/"+strat.String()), got, refJoin(lS, rS, lrows, rrows))
			}
			for _, strat := range []JoinStrategy{StrategyShuffle, StrategyBroadcast} {
				for _, p := range []func(Row) bool{nil, pred} {
					x := c.NewExec(nil)
					got := x.LeftJoinWith(left, right, p, strat)
					desc := tag("LeftJoin/" + strat.String())
					if p != nil {
						desc += "+pred"
					}
					checkRows(t, desc, got, refLeftJoin(lS, rS, lrows, rrows, p))
				}
			}
			{
				x := c.NewExec(nil)
				got := x.Union(left, right)
				wantSchema, want := refUnion(lS, rS, lrows, rrows)
				if len(got.Schema) != len(wantSchema) {
					t.Fatalf("%s: schema %v, want %v", tag("Union"), got.Schema, wantSchema)
				}
				checkRows(t, tag("Union"), got, want)
			}
			{
				x := c.NewExec(nil)
				got := x.Distinct(left)
				checkRows(t, tag("Distinct"), got, refDistinct(lrows))
			}
		}
	}
}

// TestStarJoinEquivalenceRandomized checks the star operator against the
// same result computed as a chain of reference joins, over random centers
// and 2–4 arms (including key-only arms, which multiply cardinality).
func TestStarJoinEquivalenceRandomized(t *testing.T) {
	for _, parts := range []int{1, 3, 4} {
		c := NewCluster(parts)
		for seed := int64(0); seed < 12; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			centerSchema := []string{"x", "c0"}
			crows := randRows(rnd, 2, 40, 8)
			center := c.exec().FromRows(centerSchema, crows)
			k := 2 + rnd.Intn(3)
			rights := make([]*Relation, k)
			wantSchema := centerSchema
			want := crows
			for i := 0; i < k; i++ {
				var rs []string
				if rnd.Intn(4) == 0 {
					rs = []string{"x"} // key-only arm
				} else {
					rs = []string{fmt.Sprintf("a%d", i), "x"}
				}
				rrows := randRows(rnd, len(rs), 30, 8)
				rights[i] = c.exec().FromRows(rs, rrows)
				want = refJoin(wantSchema, rs, want, rrows)
				_, rIdx := sharedCols(wantSchema, rs)
				wantSchema = joinSchema(wantSchema, rs, rIdx)
			}
			x := c.NewExec(nil)
			got, stats := x.StarJoin(center, rights)
			if len(stats) != k {
				t.Fatalf("parts=%d seed=%d: %d stage stats, want %d", parts, seed, len(stats), k)
			}
			if len(got.Schema) != len(wantSchema) {
				t.Fatalf("parts=%d seed=%d: schema %v, want %v", parts, seed, got.Schema, wantSchema)
			}
			checkRows(t, fmt.Sprintf("parts=%d seed=%d StarJoin k=%d", parts, seed, k), got, want)
		}
	}
}
