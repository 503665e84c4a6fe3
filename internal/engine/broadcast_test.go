package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"s2rdf/internal/dict"
)

func TestBroadcastJoinMatchesShuffleJoin(t *testing.T) {
	f := func(av, bv []uint8) bool {
		var arows, brows []Row
		for _, v := range av {
			arows = append(arows, Row{dict.ID(v % 8), dict.ID(v)})
		}
		for _, v := range bv {
			brows = append(brows, Row{dict.ID(v % 8), dict.ID(v / 2)})
		}
		shuffled := NewCluster(4).exec()
		a1 := shuffled.FromRows([]string{"x", "y"}, arows)
		b1 := shuffled.FromRows([]string{"x", "z"}, brows)
		want := sortedRows(shuffled.JoinWith(a1, b1, StrategyShuffle))

		broadcast := NewCluster(4).exec()
		a2 := broadcast.FromRows([]string{"x", "y"}, arows)
		b2 := broadcast.FromRows([]string{"x", "z"}, brows)
		got := sortedRows(broadcast.JoinWith(a2, b2, StrategyBroadcast))
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBroadcastJoinSmallRightSide(t *testing.T) {
	c := NewCluster(4)
	x := c.exec()
	var big []Row
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		big = append(big, Row{dict.ID(rng.Intn(20)), dict.ID(i)})
	}
	bigRel := x.FromRows([]string{"x", "y"}, big)
	small := x.FromRows([]string{"x", "z"}, []Row{{3, 100}, {7, 200}})

	before := x.MetricsSnapshot().RowsShuffled
	res := x.JoinWith(bigRel, small, StrategyBroadcast)
	shuffled := x.MetricsSnapshot().RowsShuffled - before
	// Broadcast cost: 2 small rows × 4 partitions = 8, not 102.
	if shuffled != 8 {
		t.Errorf("shuffled %d rows, want 8 (broadcast)", shuffled)
	}
	// Verify contents against a manual count.
	want := 0
	for _, row := range big {
		if row[0] == 3 || row[0] == 7 {
			want++
		}
	}
	if res.NumRows() != want {
		t.Errorf("rows = %d, want %d", res.NumRows(), want)
	}
	if !reflect.DeepEqual(res.Schema, []string{"x", "y", "z"}) {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestBroadcastJoinSmallLeftSide(t *testing.T) {
	x := NewCluster(3).exec()
	small := x.FromRows([]string{"x", "y"}, []Row{{1, 10}, {2, 20}})
	var big []Row
	for i := 0; i < 50; i++ {
		big = append(big, Row{dict.ID(i % 4), dict.ID(i)})
	}
	bigRel := x.FromRows([]string{"x", "z"}, big)
	res := x.JoinWith(small, bigRel, StrategyBroadcast)
	if !reflect.DeepEqual(res.Schema, []string{"x", "y", "z"}) {
		t.Fatalf("schema = %v", res.Schema)
	}
	// x=1 appears 13 times in big (i%4==1: 1,5,...,49), x=2 appears 12.
	if res.NumRows() != 25 {
		t.Errorf("rows = %d, want 25", res.NumRows())
	}
	for _, row := range res.Rows() {
		if row[0] == 1 && row[1] != 10 || row[0] == 2 && row[1] != 20 {
			t.Fatalf("bad row %v", row)
		}
	}
}

// TestBroadcastDisabledByDefault pins the zero JoinStrategy to the paper's
// configuration: a shuffle join, never a broadcast.
func TestBroadcastDisabledByDefault(t *testing.T) {
	c := NewCluster(4)
	x := c.exec()
	a := x.FromRows([]string{"x"}, []Row{{1}})
	b := x.FromRows([]string{"x", "y"}, []Row{{1, 2}, {3, 4}})
	before := x.MetricsSnapshot().RowsShuffled
	var zero JoinStrategy
	x.JoinWith(a, b, zero)
	// Both sides shuffled (1 + 2 rows), not broadcast (1×4).
	if got := x.MetricsSnapshot().RowsShuffled - before; got != 3 {
		t.Errorf("shuffled %d rows, want 3 (shuffle join)", got)
	}
}

func TestBroadcastJoinEmptySmallSide(t *testing.T) {
	x := NewCluster(2).exec()
	empty := x.FromRows([]string{"x", "y"}, nil)
	big := x.FromRows([]string{"x", "z"}, []Row{{1, 2}, {3, 4}})
	if res := x.JoinWith(empty, big, StrategyBroadcast); res.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", res.NumRows())
	}
}
