package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestExecPerQueryMetrics runs the same plan through two Exec handles
// concurrently, many times, and asserts each handle's metrics equal an
// isolated sequential run.
func TestExecPerQueryMetrics(t *testing.T) {
	follows, likes := g1VP()

	plan := func(x *Exec) *Relation {
		f := mustScan(x, follows, ScanSpec{Projs: []ScanProjection{{"s", "x"}, {"o", "y"}}})
		l := mustScan(x, likes, ScanSpec{Projs: []ScanProjection{{"s", "y"}, {"o", "w"}}})
		return x.Distinct(x.JoinWith(f, l, StrategyShuffle))
	}

	// Isolated baseline.
	base := NewCluster(4)
	bx := base.NewExec()
	baseRel := plan(bx)
	want := bx.MetricsSnapshot()
	wantRows := sortedRows(baseRel)

	c := NewCluster(4)
	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				x := c.NewExec()
				rel := plan(x)
				if got := x.MetricsSnapshot(); got != want {
					errs <- fmt.Errorf("per-query metrics %+v, want %+v", got, want)
					return
				}
				if got := sortedRows(rel); !reflect.DeepEqual(got, wantRows) {
					errs <- fmt.Errorf("rows %v, want %v", got, wantRows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExecNilMetrics checks each handle meters into counters of its own,
// and only its own. (The name dates from NewExec's former *Metrics
// argument, where nil asked for a private set.)
func TestExecNilMetrics(t *testing.T) {
	follows, _ := g1VP()
	c := NewCluster(2)
	x, other := c.NewExec(), c.NewExec()
	mustScan(x, follows, ScanSpec{Projs: []ScanProjection{{"s", "x"}}})
	if got := x.MetricsSnapshot().RowsScanned; got != int64(follows.NumRows()) {
		t.Errorf("RowsScanned = %d, want %d", got, follows.NumRows())
	}
	if got := other.MetricsSnapshot(); got != (MetricsSnapshot{}) {
		t.Errorf("an idle handle metered %+v", got)
	}
}

func TestDistinctFNVCollisionSafety(t *testing.T) {
	c := NewCluster(3)
	// Many rows, few distinct values: all duplicates must collapse and all
	// distinct rows must survive, whatever their hash buckets.
	var rows []Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, Row{uint32(i % 7), uint32(i % 3)})
	}
	rel := c.exec().FromRows([]string{"a", "b"}, rows)
	got := c.exec().Distinct(rel)
	distinct := map[[2]uint32]bool{}
	for _, r := range rows {
		distinct[[2]uint32{r[0], r[1]}] = true
	}
	if got.NumRows() != len(distinct) {
		t.Errorf("Distinct kept %d rows, want %d", got.NumRows(), len(distinct))
	}
	seen := map[[2]uint32]bool{}
	for _, r := range got.Rows() {
		k := [2]uint32{r[0], r[1]}
		if seen[k] {
			t.Fatalf("duplicate row %v survived", r)
		}
		seen[k] = true
	}
}

// distinctStringKey is the pre-optimization Distinct (per-row string key
// allocation), kept for benchmark comparison.
func distinctStringKey(c *Cluster, r *Relation) *Relation {
	x := c.exec()
	s := x.shuffle(r, 0)
	out := newRelation(r.Schema, len(s.Parts))
	x.parallel(len(s.Parts), func(p int) {
		src := s.Parts[p]
		seen := make(map[string]struct{}, src.Len())
		rows := NewBlock(len(r.Schema), 0)
		for i, n := 0, src.Len(); i < n; i++ {
			row := src.Row(i)
			b := make([]byte, 0, len(row)*4)
			for _, v := range row {
				b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			k := string(b)
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = struct{}{}
			rows.Append(row)
		}
		out.Parts[p] = rows
	})
	return out
}

// benchRelation builds a duplication-heavy input (100k rows, 12.8k distinct)
// like the DISTINCT projections the compiler emits.
func benchRelation(c *Cluster, n int) *Relation {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{uint32(i % 512), uint32(i % 100), uint32(i % 4)}
	}
	return c.exec().FromRows([]string{"a", "b", "c"}, rows)
}

func BenchmarkDistinctFNV(b *testing.B) {
	c := NewCluster(4)
	rel := benchRelation(c, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.exec().Distinct(rel)
	}
}

func BenchmarkDistinctStringKey(b *testing.B) {
	c := NewCluster(4)
	rel := benchRelation(c, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distinctStringKey(c, rel)
	}
}
