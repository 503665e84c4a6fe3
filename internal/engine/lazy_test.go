package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/dict"
	"s2rdf/internal/store"
)

// eagerTwin returns r with every partition gathered dense: the same rows
// in the same partitions, under the same partitioning, read the way every
// operator read its input before blocks could be lazy.
func eagerTwin(r *Relation) *Relation {
	out := &Relation{Schema: r.Schema, Parts: make([]*Block, len(r.Parts)), keyCol: r.keyCol}
	for p, blk := range r.Parts {
		if blk != nil {
			out.Parts[p] = blk.dense()
		}
	}
	return out
}

// isLazy reports whether any partition of r is a lazy block.
func isLazy(r *Relation) bool {
	for _, blk := range r.Parts {
		if blk != nil && blk.lz != nil {
			return true
		}
	}
	return false
}

// lazyFixtures returns relations whose partitions are lazy, of every shape
// the engine makes: a join's pair vectors (one-to-many, and one-to-one,
// whose probe side is read in order), a join over a join's output (two
// levels of row ids), a bit-vector scan's row numbers over its table, and a
// projection of a join that adds a column its input lacks. Each has key
// column "k" first.
func lazyFixtures(t *testing.T, x *Exec, rng *rand.Rand) map[string]*Relation {
	t.Helper()
	rows := func(n, keys int, base dict.ID) []Row {
		out := make([]Row, n)
		for i := range out {
			out[i] = Row{dict.ID(rng.Intn(keys)), base + dict.ID(rng.Intn(50))}
		}
		return out
	}
	big := x.FromRows([]string{"k", "a"}, rows(900, 60, 1000))
	small := x.FromRows([]string{"k", "b"}, rows(90, 60, 2000))
	third := x.FromRows([]string{"k", "c"}, rows(40, 60, 3000))
	// Every row of many matches exactly one row of one.
	many, one := make([]Row, 300), make([]Row, 100)
	for i := range many {
		many[i] = Row{dict.ID(i % 100), dict.ID(4000 + i)}
	}
	for i := range one {
		one[i] = Row{dict.ID(i), dict.ID(4500 + i)}
	}
	join := x.JoinWith(big, small, StrategyBroadcast)

	table := store.NewTable("VP:p", "s", "o")
	sel := bitvec.New(2000)
	for i := 0; i < 2000; i++ {
		table.Append(dict.ID(rng.Intn(70)), dict.ID(5000+i))
		if rng.Intn(3) > 0 {
			sel.Set(i)
		}
	}
	bits := mustScan(x, table, ScanSpec{
		Projs: []ScanProjection{{Col: "s", As: "k"}, {Col: "o", As: "v"}}, Sel: sel, SelRows: sel.Count(),
	})

	fx := map[string]*Relation{
		"join":         join,
		"one-to-one":   x.JoinWith(x.FromRows([]string{"k", "d"}, many), x.FromRows([]string{"k", "e"}, one), StrategyBroadcast),
		"join of join": x.JoinWith(join, third, StrategyBroadcast),
		"bits":         bits,
		"projection":   x.Project(join, []string{"k", "b", "missing"}),
	}
	for name, r := range fx {
		if !isLazy(r) {
			t.Fatalf("fixture %s has no lazy partition", name)
		}
	}
	return fx
}

// TestLazyRelationsMatchEager feeds every kind of lazy relation through every
// operator that consumes one and requires the same rows, in the same order,
// as the operator gives on the relation's eager twin, inline and on the
// workers.
func TestLazyRelationsMatchEager(t *testing.T) {
	for _, cfg := range clusterConfigs([]int{1, 3, 8}) {
		c, parts := cfg.c, cfg.name
		rng := rand.New(rand.NewSource(int64(c.partitions)))
		x := c.exec()
		other := x.FromRows([]string{"k", "z"}, randRows(rng, 2, 120, 70))
		unrelated := x.FromRows([]string{"q"}, []Row{{1}, {2}, {3}})
		keyOf := func(id dict.ID) SortKey { return NumericKey(-float64(id)) }
		for name, lazy := range lazyFixtures(t, x, rng) {
			eager := eagerTwin(lazy)
			k := lazy.Schema[0]
			odd := func(row Row) bool { return row[len(row)-1]%2 == 1 }
			ops := map[string]func(r *Relation) *Relation{
				"Rows":    func(r *Relation) *Relation { return x.FromRows(r.Schema, r.Rows()) },
				"Filter":  func(r *Relation) *Relation { return x.Filter(r, odd) },
				"Project": func(r *Relation) *Relation { return x.Project(r, []string{lazy.Schema[len(lazy.Schema)-1], "nope", k}) },
				"Distinct": func(r *Relation) *Relation {
					return x.Distinct(r)
				},
				"Union":       func(r *Relation) *Relation { return x.Union(other, x.Union(r, other)) },
				"shuffle":     func(r *Relation) *Relation { return x.shuffle(r, 1) },
				"cross":       func(r *Relation) *Relation { return x.JoinWith(r, unrelated, StrategyShuffle) },
				"cross right": func(r *Relation) *Relation { return x.JoinWith(unrelated, r, StrategyShuffle) },
				"OrderBy":     func(r *Relation) *Relation { return x.OrderBy(r, []SortCol{{Col: 1, Desc: true}, {Col: 0}}, keyOf) },
				"TopK":        func(r *Relation) *Relation { return x.TopK(r, 17, []SortCol{{Col: 1}, {Col: 0, Desc: true}}, keyOf) },
				"Limit":       func(r *Relation) *Relation { return x.Limit(r, 5, 40) },
				"JoinTopK": func(r *Relation) *Relation {
					out, _ := x.JoinTopK(r, other, StrategyBroadcast, 9, []SortCol{{Col: 1}}, keyOf)
					return out
				},
				"batches":      func(r *Relation) *Relation { return batchesOf(t, x, r) },
				"DistinctKeys": func(r *Relation) *Relation { return keysOf(x, r.DistinctKeys(0)) },
				"EachRow":      func(r *Relation) *Relation { return eachRowOf(x, r) },
			}
			for _, strat := range []JoinStrategy{StrategyBroadcast, StrategyShuffle} {
				ops["join probe "+strat.String()] = func(r *Relation) *Relation { return x.JoinWith(r, other, strat) }
				ops["join build "+strat.String()] = func(r *Relation) *Relation { return x.JoinWith(other, r, strat) }
				ops["LeftJoinWith left "+strat.String()] = func(r *Relation) *Relation { return x.LeftJoinWith(r, other, odd, strat) }
				ops["LeftJoinWith right "+strat.String()] = func(r *Relation) *Relation { return x.LeftJoinWith(other, r, odd, strat) }
			}
			for op, fn := range ops {
				got, want := fn(lazy), fn(eager)
				if !reflect.DeepEqual(got.Schema, want.Schema) {
					t.Fatalf("%s, %s, %s: schema %v, eager %v", parts, name, op, got.Schema, want.Schema)
				}
				if g, w := got.Rows(), want.Rows(); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s, %s, %s: %d rows differ from the eager path's %d", parts, name, op, len(g), len(w))
				}
			}
			if a, b := sole(lazy, 0), sole(eager, 0); a != b {
				t.Fatalf("%s, %s: SoleKey %s, eager %s", parts, name, a, b)
			}
		}
	}
}

// TestLazyBuildsSpill: a lazy relation on the build side of a join under a
// 1-byte memory budget spills its key columns, gathered, and the join
// equals the unbudgeted one on the eager twin, under both strategies.
func TestLazyBuildsSpill(t *testing.T) {
	c := NewCluster(3)
	rng := rand.New(rand.NewSource(11))
	x := c.exec()
	big := x.FromRows([]string{"k", "z"}, randRows(rng, 2, 3000, 70))
	for name, lazy := range lazyFixtures(t, x, rng) {
		for _, strat := range []JoinStrategy{StrategyBroadcast, StrategyShuffle} {
			want := x.JoinWith(big, eagerTwin(lazy), strat).Rows()
			tight := c.exec()
			tight.SetMemBudget(1, t.TempDir())
			got := tight.JoinWith(big, lazy, strat)
			if tight.MetricsSnapshot().BytesSpilled == 0 {
				t.Fatalf("%s, %s: the budgeted join spilled nothing", name, strat)
			}
			if g := got.Rows(); !reflect.DeepEqual(g, want) {
				t.Fatalf("%s, %s: spilled join gave %d rows, want %d", name, strat, len(g), len(want))
			}
		}
	}
}

// batchesOf collects r's stream batches into a relation, checking that
// every batch is dense, as the stream boundary's consumers read it.
func batchesOf(t *testing.T, x *Exec, r *Relation) *Relation {
	var rows []Row
	it := r.Batches(x, 64)
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		if b.lz != nil {
			t.Fatal("a stream batch is lazy")
		}
		for i := range b.Len() {
			rows = append(rows, b.Row(i))
		}
	}
	return x.FromRows(r.Schema, rows)
}

func eachRowOf(x *Exec, r *Relation) *Relation {
	var rows []Row
	r.EachRow(func(_ int, row Row) bool {
		rows = append(rows, append(Row(nil), row...))
		return true
	})
	return x.FromRows(r.Schema, rows)
}

func keysOf(x *Exec, keys []dict.ID) *Relation {
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = Row{k}
	}
	return x.FromRows([]string{"key"}, rows)
}

func sole(r *Relation, col int) string {
	k, ok := r.SoleKey(col)
	return fmt.Sprint(k, ok)
}
