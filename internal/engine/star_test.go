package engine

import (
	"testing"

	"s2rdf/internal/dict"
)

// TestStarJoinStatsAndMetering pins the star operator's accounting: stage 0
// carries the center's shuffle cost, every stage carries its own input's,
// the per-stage figures sum to the execution's metered RowsShuffled, and
// probing meters comparisons.
func TestStarJoinStatsAndMetering(t *testing.T) {
	c := NewCluster(3)
	center := c.exec().FromRows([]string{"x", "y"}, []Row{{1, 10}, {2, 20}, {3, 30}})
	r0 := c.exec().FromRows([]string{"x", "a"}, []Row{{1, 100}, {1, 101}, {2, 102}})
	r1 := c.exec().FromRows([]string{"x", "b"}, []Row{{1, 200}, {2, 201}, {9, 202}})
	var m Metrics
	x := c.NewExec(&m)
	out, stats := x.StarJoin(center, []*Relation{r0, r1})

	want := []Row{{1, 10, 100, 200}, {1, 10, 101, 200}, {2, 20, 102, 201}}
	checkRows(t, "StarJoin", out, want)
	if out.PartitionKey() != 0 || len(out.Parts) != c.Partitions() {
		t.Errorf("output partitioning: key=%d parts=%d", out.PartitionKey(), len(out.Parts))
	}

	// Stage 0: center (3 rows) + r0 (3 rows); stage 1: r1 (3 rows).
	if stats[0].RowsShuffled != 6 || stats[1].RowsShuffled != 3 {
		t.Errorf("stage shuffled = %d, %d; want 6, 3", stats[0].RowsShuffled, stats[1].RowsShuffled)
	}
	if got := m.RowsShuffled.Load(); got != stats[0].RowsShuffled+stats[1].RowsShuffled {
		t.Errorf("metered RowsShuffled = %d, want %d", got, stats[0].RowsShuffled+stats[1].RowsShuffled)
	}
	if stats[0].Comparisons == 0 || stats[1].Comparisons == 0 {
		t.Errorf("stage comparisons = %d, %d; want > 0", stats[0].Comparisons, stats[1].Comparisons)
	}
	if got := m.JoinComparisons.Load(); got != stats[0].Comparisons+stats[1].Comparisons {
		t.Errorf("metered comparisons = %d, want %d", got, stats[0].Comparisons+stats[1].Comparisons)
	}
}

// TestStarJoinCoPartitionedCenterShufflesNothing: a center that already
// arrived hash-partitioned on the hub (the output of a previous join on the
// same variable) reports zero shuffled rows for its half of stage 0.
func TestStarJoinCoPartitionedCenterShufflesNothing(t *testing.T) {
	c := NewCluster(3)
	a := c.exec().FromRows([]string{"x", "y"}, []Row{{1, 10}, {2, 20}, {3, 30}})
	b := c.exec().FromRows([]string{"x", "z"}, []Row{{1, 40}, {2, 50}, {3, 60}})
	x := c.NewExec(nil)
	center := x.JoinWith(a, b, StrategyShuffle) // partitioned by x
	if !center.CoPartitionedBy(0, c.Partitions()) {
		t.Fatal("join output not co-partitioned by its key")
	}
	r0 := c.exec().FromRows([]string{"x", "a"}, []Row{{1, 100}})
	r1 := c.exec().FromRows([]string{"x", "b"}, []Row{{2, 200}})
	_, stats := x.StarJoin(center, []*Relation{r0, r1})
	// Stage 0 moves only r0's single row; the 3-row center stays put.
	if stats[0].RowsShuffled != 1 {
		t.Errorf("stage 0 shuffled = %d, want 1 (center co-partitioned)", stats[0].RowsShuffled)
	}
}

// TestCoPartitionedJoinShufflesNothing is the satellite acceptance check at
// the engine level: joining two relations that both arrived hash-partitioned
// on the join key (outputs of prior joins on the same variable) moves zero
// rows — the engine skips both shuffles and the metered delta is nil.
func TestCoPartitionedJoinShufflesNothing(t *testing.T) {
	c := NewCluster(4)
	mk := func(col2 string, base int) *Relation {
		var rows []Row
		for i := 0; i < 40; i++ {
			rows = append(rows, Row{dict.ID(i), dict.ID(base + i)})
		}
		return c.exec().FromRows([]string{"x", col2}, rows)
	}
	var m Metrics
	x := c.NewExec(&m)
	left := x.JoinWith(mk("y", 100), mk("z", 200), StrategyShuffle)
	right := x.JoinWith(mk("v", 300), mk("w", 400), StrategyShuffle)
	if !left.CoPartitionedBy(0, c.Partitions()) || !right.CoPartitionedBy(0, c.Partitions()) {
		t.Fatal("join outputs not co-partitioned by x")
	}
	before := m.RowsShuffled.Load()
	out := x.JoinWith(left, right, StrategyShuffle)
	if d := m.RowsShuffled.Load() - before; d != 0 {
		t.Errorf("co-partitioned join shuffled %d rows, want 0", d)
	}
	if out.NumRows() != 40 {
		t.Errorf("join produced %d rows, want 40", out.NumRows())
	}
}
