package engine

import (
	"reflect"
	"testing"
	"testing/quick"

	"s2rdf/internal/dict"
)

// TestJoinWithExplicitStrategies checks that an explicit broadcast or
// shuffle choice produces identical contents.
func TestJoinWithExplicitStrategies(t *testing.T) {
	f := func(av, bv []uint8) bool {
		var arows, brows []Row
		for _, v := range av {
			arows = append(arows, Row{dict.ID(v % 8), dict.ID(v)})
		}
		for _, v := range bv {
			brows = append(brows, Row{dict.ID(v % 8), dict.ID(v / 2)})
		}
		c := NewCluster(4)
		a := c.exec().FromRows([]string{"x", "y"}, arows)
		b := c.exec().FromRows([]string{"x", "z"}, brows)
		x := c.exec()
		want := sortedRows(x.JoinWith(a, b, StrategyShuffle))
		got := sortedRows(x.JoinWith(a, b, StrategyBroadcast))
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestJoinWithBroadcastOverridesThreshold verifies the planner hook:
// StrategyBroadcast broadcasts (metered as small×partitions replicated rows,
// not a both-sides shuffle).
func TestJoinWithBroadcastOverridesThreshold(t *testing.T) {
	c := NewCluster(4)
	var big []Row
	for i := 0; i < 100; i++ {
		big = append(big, Row{dict.ID(i % 10), dict.ID(i)})
	}
	bigRel := c.exec().FromRows([]string{"x", "y"}, big)
	small := c.exec().FromRows([]string{"x", "z"}, []Row{{3, 100}})
	before := c.Metrics.RowsShuffled.Load()
	res := c.exec().JoinWith(bigRel, small, StrategyBroadcast)
	if got := c.Metrics.RowsShuffled.Load() - before; got != 4 {
		t.Errorf("shuffled %d rows, want 4 (1 small row × 4 partitions)", got)
	}
	if res.NumRows() != 10 {
		t.Errorf("rows = %d, want 10", res.NumRows())
	}
}

// leftJoinCase runs LeftJoinWith under both strategies and fails on any
// difference in the (sorted) output rows.
func leftJoinCase(t *testing.T, lrows, rrows []Row, pred func(Row) bool) {
	t.Helper()
	c := NewCluster(4)
	left := c.exec().FromRows([]string{"x", "y"}, lrows)
	right := c.exec().FromRows([]string{"x", "z"}, rrows)
	x := c.exec()
	want := sortedRows(x.LeftJoinWith(left, right, pred, StrategyShuffle))
	got := sortedRows(x.LeftJoinWith(left, right, pred, StrategyBroadcast))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("broadcast left join = %v, want %v", got, want)
	}
}

func TestLeftJoinBroadcastMatchesShuffle(t *testing.T) {
	lrows := []Row{{1, 10}, {2, 20}, {3, 30}, {3, 31}, {9, 90}}
	rrows := []Row{{1, 100}, {3, 300}, {3, 301}, {7, 700}}
	leftJoinCase(t, lrows, rrows, nil)
	// With a predicate rejecting some matches (SPARQL OPTIONAL filter):
	// rows rejected for every candidate must survive Null-padded.
	leftJoinCase(t, lrows, rrows, func(r Row) bool { return r[2] != 300 })
	// Empty right side: every left row survives padded.
	leftJoinCase(t, lrows, nil, nil)
	// Empty left side.
	leftJoinCase(t, nil, rrows, nil)
}

func TestLeftJoinBroadcastQuick(t *testing.T) {
	f := func(av, bv []uint8) bool {
		var lrows, rrows []Row
		for _, v := range av {
			lrows = append(lrows, Row{dict.ID(v % 6), dict.ID(v)})
		}
		for _, v := range bv {
			rrows = append(rrows, Row{dict.ID(v % 6), dict.ID(v / 3)})
		}
		c := NewCluster(3)
		left := c.exec().FromRows([]string{"x", "y"}, lrows)
		right := c.exec().FromRows([]string{"x", "z"}, rrows)
		x := c.exec()
		want := sortedRows(x.LeftJoinWith(left, right, nil, StrategyShuffle))
		got := sortedRows(x.LeftJoinWith(left, right, nil, StrategyBroadcast))
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLeftJoinBroadcastKeepsLeftPartitioning checks the co-partitioning
// contract: a broadcast left join leaves left rows in place, so a following
// join on the same key skips the shuffle.
func TestLeftJoinBroadcastKeepsLeftPartitioning(t *testing.T) {
	c := NewCluster(4)
	x := c.exec()
	var lrows, rrows []Row
	for i := 0; i < 40; i++ {
		lrows = append(lrows, Row{dict.ID(i), dict.ID(i * 2)})
		if i%2 == 0 {
			rrows = append(rrows, Row{dict.ID(i), dict.ID(i * 3)})
		}
	}
	left := x.shuffle(c.exec().FromRows([]string{"x", "y"}, lrows), 0)
	right := c.exec().FromRows([]string{"x", "z"}, rrows)
	out := x.LeftJoinWith(left, right, nil, StrategyBroadcast)
	if out.keyCol != 0 {
		t.Errorf("keyCol = %d, want 0 (left partitioning preserved)", out.keyCol)
	}
	if out.NumRows() != 40 {
		t.Errorf("rows = %d, want 40", out.NumRows())
	}
}

func TestJoinStrategyString(t *testing.T) {
	for s, want := range map[JoinStrategy]string{
		StrategyShuffle: "shuffle", StrategyBroadcast: "broadcast",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}
