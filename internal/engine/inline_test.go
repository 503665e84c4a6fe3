package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/dict"
	"s2rdf/internal/store"
)

// fanOut makes c run every operator's partition tasks on its worker pool,
// however small the input: the path that inputs of inlineRows rows and
// more take.
func fanOut(c *Cluster) *Cluster {
	c.inline = 0
	c.workers = max(c.workers, 2)
	return c
}

// clusterConfig is a cluster a test runs on, named for its messages.
type clusterConfig struct {
	name string
	c    *Cluster
}

// clusterConfigs returns two clusters per partition count: one at the
// default inline threshold, under which test-sized inputs run inline, and
// one that fans every operator out.
func clusterConfigs(parts []int) []clusterConfig {
	var out []clusterConfig
	for _, p := range parts {
		out = append(out,
			clusterConfig{fmt.Sprintf("parts=%d", p), NewCluster(p)},
			clusterConfig{fmt.Sprintf("parts=%d fan-out", p), fanOut(NewCluster(p))})
	}
	return out
}

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 7 [running]:"), so a test can tell which goroutine ran a
// partition task.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// goroutines records the goroutines that call seen.
type goroutines struct {
	mu  sync.Mutex
	ids map[string]bool
}

func (g *goroutines) seen() {
	id := goid()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ids == nil {
		g.ids = map[string]bool{}
	}
	g.ids[id] = true
}

// TestInlineMatchesFanOut runs every operator over inputs just below, at
// and just above inlineRows, on three clusters of 4 partitions and 2
// workers: one at the default threshold, one that runs every task inline
// and one that fans every task out. The three must give the same rows in
// the same order and the same counters, Tasks included: only the goroutine
// that runs a task may differ. A Filter's predicate shows which goroutine
// that is: the query's own below the threshold, only workers from it up.
func TestInlineMatchesFanOut(t *testing.T) {
	clusters := func() (def, inline, fan *Cluster) {
		def, inline, fan = NewCluster(4), NewCluster(4), fanOut(NewCluster(4))
		def.workers, inline.workers = 2, 2
		inline.inline = math.MaxInt
		return def, inline, fan
	}
	keyOf := func(id dict.ID) SortKey { return NumericKey(float64(id)) }
	odd := func(row Row) bool { return row[len(row)-1]%2 == 1 }
	byKey := []SortCol{{Col: 0, Desc: true}, {Col: 1}}
	for _, n := range []int{inlineRows - 1, inlineRows, inlineRows + 1} {
		x := NewCluster(4).exec()
		// rel(m) holds m rows, (i mod 97, i); keyed holds the keys 0..96
		// once each, so every row of rel(m) finds exactly one partner and a
		// join over it outputs as many rows as it probes.
		rel := func(m int) *Relation {
			rows := make([]Row, m)
			for i := range rows {
				rows[i] = Row{dict.ID(i % 97), dict.ID(i)}
			}
			return x.FromRows([]string{"k", "v"}, rows)
		}
		keyed := make([]Row, 97)
		for i := range keyed {
			keyed[i] = Row{dict.ID(i), dict.ID(5000 + i)}
		}
		right := x.FromRows([]string{"k", "w"}, keyed)
		unrelated := x.FromRows([]string{"q"}, []Row{{7}})
		full, short := rel(n), rel(n-len(keyed))

		// A table of n rows sorted by subject, three rows per subject.
		tbl := store.NewTable("VP:p", "s", "o")
		sel := bitvec.New(n)
		keys := make([]dict.ID, 0, n/3+1)
		for i := 0; i < n; i++ {
			tbl.Append(dict.ID(i/3), dict.ID(i%5))
			if i%4 != 1 {
				sel.Set(i)
			}
			if i%3 == 0 {
				keys = append(keys, dict.ID(i/3))
			}
		}
		tbl.Finalize()
		projs := []ScanProjection{{Col: "s", As: "k"}, {Col: "o", As: "v"}}
		scan := func(spec ScanSpec) func(x *Exec) *Relation {
			spec.Projs = projs
			return func(x *Exec) *Relation { return mustScan(x, tbl, spec) }
		}

		// Each operator's input is n rows as it counts them: the probe side
		// of a broadcast join, both sides of a shuffle join, left × right
		// for a cross join.
		ops := map[string]func(x *Exec) *Relation{
			"range scan":       scan(ScanSpec{}),
			"conditioned scan": scan(ScanSpec{Conds: []ScanCondition{{Col: "o", Value: 2}}}),
			"bit-vector scan":  scan(ScanSpec{Sel: sel, SelRows: sel.Count()}),
			"key-run scan":     scan(ScanSpec{Keys: keys}),
			"Filter":           func(x *Exec) *Relation { return x.Filter(full, odd) },
			"Project":          func(x *Exec) *Relation { return x.Project(full, []string{"v", "missing", "k"}) },
			"shuffle":          func(x *Exec) *Relation { return x.shuffle(full, 1) },
			"broadcast join":   func(x *Exec) *Relation { return x.JoinWith(full, right, StrategyBroadcast) },
			"shuffle join":     func(x *Exec) *Relation { return x.JoinWith(short, right, StrategyShuffle) },
			"broadcast LeftJoinWith": func(x *Exec) *Relation {
				return x.LeftJoinWith(full, right, odd, StrategyBroadcast)
			},
			"shuffle LeftJoinWith": func(x *Exec) *Relation {
				return x.LeftJoinWith(short, right, odd, StrategyShuffle)
			},
			"cross":    func(x *Exec) *Relation { return x.JoinWith(full, unrelated, StrategyShuffle) },
			"Distinct": func(x *Exec) *Relation { return x.Distinct(x.Project(full, []string{"k"})) },
			"OrderBy":  func(x *Exec) *Relation { return x.OrderBy(full, byKey, keyOf) },
			"TopK":     func(x *Exec) *Relation { return x.TopK(full, 10, byKey, keyOf) },
			"JoinTopK": func(x *Exec) *Relation {
				out, topk := x.JoinTopK(full, right, StrategyBroadcast, 10, byKey, keyOf)
				if !topk {
					t.Fatalf("n=%d: JoinTopK did not take the top-k", n)
				}
				return out
			},
		}
		def, inline, fan := clusters()
		for name, op := range ops {
			var rows [3][]Row
			var metrics [3]MetricsSnapshot
			for i, c := range []*Cluster{def, inline, fan} {
				ex := c.exec()
				rows[i], metrics[i] = op(ex).Rows(), ex.MetricsSnapshot()
			}
			if metrics[0].Tasks == 0 {
				t.Fatalf("n=%d, %s: no partition task ran", n, name)
			}
			for i, path := range []string{"inline", "fan-out"} {
				if !reflect.DeepEqual(rows[i+1], rows[0]) {
					t.Fatalf("n=%d, %s: the %s run gave %d rows, differing from the default's %d", n, name, path, len(rows[i+1]), len(rows[0]))
				}
				if metrics[i+1] != metrics[0] {
					t.Fatalf("n=%d, %s: the %s run metered %+v, the default %+v", n, name, path, metrics[i+1], metrics[0])
				}
			}
		}

		self := goid()
		for _, c := range []*Cluster{def, fan} {
			var g goroutines
			c.exec().Filter(full, func(Row) bool { g.seen(); return true })
			switch wantInline := c == def && n < inlineRows; {
			case wantInline && (len(g.ids) != 1 || !g.ids[self]):
				t.Errorf("n=%d, inline %d: Filter ran on goroutines %v, want only the caller's %s", n, c.inline, g.ids, self)
			case !wantInline && g.ids[self]:
				t.Errorf("n=%d, inline %d: Filter ran on the caller's goroutine, want the workers only", n, c.inline)
			}
		}
	}
}
