package core

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"

	"s2rdf/internal/engine"
	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
)

// starTriples builds a star-shaped workload: one very rare predicate (a
// single triple at hub subject s0) plus two common predicates whose rows
// mostly share the hub, so their SS reductions against "rare" are selective
// but still far larger than the rare side.
func starTriples() []rdf.Triple {
	iri := rdf.NewIRI
	rare, c1, c2 := iri("urn:rare"), iri("urn:c1"), iri("urn:c2")
	s0 := iri("urn:s0")
	var ts []rdf.Triple
	ts = append(ts, rdf.Triple{S: s0, P: rare, O: iri("urn:v")})
	for i := 0; i < 40; i++ {
		ts = append(ts, rdf.Triple{S: s0, P: c1, O: iri("urn:o1_" + string(rune('a'+i%26)) + string(rune('a'+i/26)))})
	}
	for i := 0; i < 4; i++ {
		ts = append(ts, rdf.Triple{S: iri("urn:t" + string(rune('0'+i))), P: c1, O: iri("urn:x")})
	}
	for i := 0; i < 30; i++ {
		ts = append(ts, rdf.Triple{S: s0, P: c2, O: iri("urn:o2_" + string(rune('a'+i%26)) + string(rune('a'+i/26)))})
	}
	for i := 0; i < 2; i++ {
		ts = append(ts, rdf.Triple{S: iri("urn:t" + string(rune('0'+i))), P: c2, O: iri("urn:y")})
	}
	return ts
}

const starQuery = `SELECT * WHERE {
	?x <urn:c1> ?a . ?x <urn:rare> ?b . ?x <urn:c2> ?c
}`

// newPlannerEngine builds an ExtVP engine with a fixed partition count so
// the broadcast-vs-shuffle cost comparison is deterministic in tests.
func newPlannerEngine(ds *layout.Dataset, parts int) *Engine {
	return &Engine{
		DS:           ds,
		Cluster:      engine.NewCluster(parts),
		Mode:         ModeExtVP,
		JoinOrderOpt: true,
		Selections:   NewSelectionCache(16),
	}
}

// TestPlannerStarAcceptance is the issue's acceptance scenario: for a
// star-shaped BGP with one highly selective pattern the planner must
// (1) join that pattern first, (2) broadcast the statistically small side
// even though no static broadcast threshold is set (the old engine would
// have shuffled), and (3) serve the second execution from the selection
// cache without re-running Algorithm 1 — all visible in the explain output.
func TestPlannerStarAcceptance(t *testing.T) {
	ds := layout.Build(starTriples(), layout.DefaultOptions())
	e := newPlannerEngine(ds, 4)

	res, err := e.Query(starQuery)
	if err != nil {
		t.Fatal(err)
	}
	// The rare pattern is textual index 1; it must be joined first.
	if len(res.JoinOrder) != 3 || res.JoinOrder[0] != 1 {
		t.Errorf("JoinOrder = %v, want the rare pattern (index 1) first", res.JoinOrder)
	}
	if res.Plan[1].Rows != 1 {
		t.Errorf("rare pattern estimated %d rows, want 1", res.Plan[1].Rows)
	}
	// Both joins keep a 1-row intermediate on the left: replicating it to
	// 4 partitions is cheaper than shuffling both sides, so the planner
	// must broadcast rather than fall back to the zero (shuffle) strategy.
	if len(res.Joins) != 2 {
		t.Fatalf("Joins = %+v, want 2 steps", res.Joins)
	}
	for i, j := range res.Joins {
		if j.Strategy != "broadcast" {
			t.Errorf("join %d strategy = %q (left %d, right %d), want broadcast",
				i, j.Strategy, j.LeftRows, j.RightRows)
		}
	}
	if res.Joins[0].LeftRows != 1 {
		t.Errorf("first join LeftRows = %d, want 1 (the rare side)", res.Joins[0].LeftRows)
	}
	// First execution computed the selections.
	if res.SelectionCacheMisses != 1 || res.SelectionCacheHits != 0 {
		t.Errorf("first run cache hits/misses = %d/%d, want 0/1",
			res.SelectionCacheHits, res.SelectionCacheMisses)
	}
	if hits, misses := e.Selections.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("selection cache stats after first execution = %d hits / %d misses, want 0/1", hits, misses)
	}

	res2, err := e.Query(starQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SelectionCacheHits != 1 || res2.SelectionCacheMisses != 0 {
		t.Errorf("second run cache hits/misses = %d/%d, want 1/0",
			res2.SelectionCacheHits, res2.SelectionCacheMisses)
	}
	if hits, misses := e.Selections.Stats(); hits != 1 || misses != 1 {
		t.Errorf("selection cache stats = %d hits / %d misses, want 1/1 (a hit skips Algorithm 1)", hits, misses)
	}
	// The cached plan must be the same plan.
	if !reflect.DeepEqual(res2.JoinOrder, res.JoinOrder) {
		t.Errorf("cached JoinOrder = %v, want %v", res2.JoinOrder, res.JoinOrder)
	}
	if !reflect.DeepEqual(res2.Joins, res.Joins) {
		t.Errorf("cached Joins = %+v, want %+v", res2.Joins, res.Joins)
	}

	// Ground truth: the hub subject joins 40 c1 objects × 1 rare value ×
	// 30 c2 objects, and a TT-mode engine (no statistics) agrees.
	if res.Len() != 1200 {
		t.Errorf("rows = %d, want 1200", res.Len())
	}
	tt := New(ds, ModeTT)
	ttRes, err := tt.Query(starQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canon(res), canon(ttRes)) {
		t.Error("planned ExtVP result differs from TT ground truth")
	}
	if !reflect.DeepEqual(canon(res2), canon(ttRes)) {
		t.Error("selection-cache-served result differs from TT ground truth")
	}
}

// TestPlannerShufflesWhenBroadcastIsDearer checks the other arm of the
// cost model: with similar-sized sides, replicating one to every partition
// moves more rows than shuffling both, so the planner keeps the shuffle.
func TestPlannerShufflesWhenBroadcastIsDearer(t *testing.T) {
	ds := layout.Build(starTriples(), layout.DefaultOptions())
	e := newPlannerEngine(ds, 4)
	// c1 (est 40) ⋈ c2 (est 30): min side 30 × 4 partitions = 120 > 70.
	res, err := e.Query(`SELECT * WHERE { ?x <urn:c1> ?a . ?x <urn:c2> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Joins) != 1 || res.Joins[0].Strategy != "shuffle" {
		t.Errorf("Joins = %+v, want one shuffle", res.Joins)
	}
}

// TestPlannerDefersCrossJoin: a disconnected BGP cannot avoid the cross
// join, but it must come last and be labeled as such.
func TestPlannerDefersCrossJoin(t *testing.T) {
	ds := layout.Build(starTriples(), layout.DefaultOptions())
	e := newPlannerEngine(ds, 4)
	res, err := e.Query(`SELECT * WHERE { ?x <urn:rare> ?b . ?c <urn:c2> ?d }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Joins) != 1 || res.Joins[0].Strategy != "cross" {
		t.Errorf("Joins = %+v, want one cross", res.Joins)
	}
	if res.Len() != 32 {
		t.Errorf("rows = %d, want 32 (1 rare × 32 c2)", res.Len())
	}
}

// TestCrossJoinEstimateCapped: a chain of cross joins multiplies its
// estimates, and the product must saturate at costCap rather than wrap.
// Seven disconnected self-loop patterns over a 20,000-row VP table match
// nothing, yet each estimates 20,000 rows, so an unchecked product
// overflows at the fifth join and reads negative at the sixth; the explain
// surface and the strategy choice both read those figures.
func TestCrossJoinEstimateCapped(t *testing.T) {
	ds, q := crossJoinCase()
	e := New(ds, ModeVP)
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("rows = %d, want 0", res.Len())
	}
	if len(res.Joins) != 6 {
		t.Fatalf("Joins = %+v, want 6 cross joins", res.Joins)
	}
	prev := 0
	for i, j := range res.Joins {
		if j.Strategy != "cross" {
			t.Errorf("join %d strategy = %q, want cross", i, j.Strategy)
		}
		if j.LeftRows < prev || j.LeftRows > costCap {
			t.Errorf("join %d LeftRows = %d after %d; want non-decreasing and <= %d", i, j.LeftRows, prev, costCap)
		}
		prev = j.LeftRows
	}
	if c := mustPlan(t, e, q).Cost(); c.PeakRows != costCap {
		t.Errorf("PeakRows = %d, want %d", c.PeakRows, costCap)
	}
}

// crossJoinCase is TestCrossJoinEstimateCapped's store and query: seven
// disconnected self-loop patterns over a 20,000-row VP table, six cross
// joins whose estimates saturate at costCap.
func crossJoinCase() (*layout.Dataset, string) {
	var ts []rdf.Triple
	for i := 0; i < 20000; i++ {
		ts = append(ts, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("urn:s%d", i)), P: rdf.NewIRI("urn:p1"), O: rdf.NewIRI(fmt.Sprintf("urn:o%d", i)),
		})
	}
	var q strings.Builder
	q.WriteString("SELECT * WHERE {")
	for k := 0; k < 7; k++ {
		fmt.Fprintf(&q, " ?x%d <urn:p1> ?x%d .", k, k)
	}
	q.WriteString(" }")
	return layout.Build(ts, layout.Options{BuildExtVP: false}), q.String()
}

// TestDuplicatePatternsKeepCorrelations is the regression for the old
// `other == tp` struct-equality skip in selectTable: a BGP holding two
// copies of the same pattern used to skip *both* copies when scanning for
// correlations, so the duplicated pattern lost its ExtVP reduction. Only
// the pattern's own position may be skipped.
func TestDuplicatePatternsKeepCorrelations(t *testing.T) {
	iri := rdf.NewIRI
	f := iri("urn:f")
	ds := layout.Build([]rdf.Triple{
		{S: iri("urn:A"), P: f, O: iri("urn:B")},
		{S: iri("urn:B"), P: f, O: iri("urn:C")},
		{S: iri("urn:C"), P: f, O: iri("urn:C")}, // the self-loop
		{S: iri("urn:C"), P: f, O: iri("urn:E")},
	}, layout.DefaultOptions())
	e := newPlannerEngine(ds, 2)

	// The two copies correlate with each other: ?x appears as subject of
	// one and object of the other, so SO/OS f|f reductions (SF 0.75)
	// apply. The old code saw no "other" pattern at all and fell back to
	// the full VP table (SF 1).
	res, err := e.Query(`SELECT * WHERE { ?x <urn:f> ?x . ?x <urn:f> ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Plan {
		if !strings.Contains(p.Table, "ExtVP") || p.SF != 0.75 || p.Rows != 3 {
			t.Errorf("plan[%d] = %+v, want an ExtVP f|f reduction (SF 0.75, 3 rows)", i, p)
		}
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (only urn:C loops)", res.Len())
	}
	if got := res.Bindings()[0]["x"]; got != iri("urn:C") {
		t.Errorf("x = %v, want urn:C", got)
	}
}

// TestLazyMaterializesOnlyWinners: table selection compares candidate
// reductions on statistics alone and resolves and names only the winner of
// each pattern. (The name dates from the deferred ExtVP build, which built
// rows only for winners; every reduction is now built at load.)
func TestLazyMaterializesOnlyWinners(t *testing.T) {
	ds := layout.Build(starTriples(), layout.DefaultOptions())
	e := newPlannerEngine(ds, 4)

	res, err := e.Query(starQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1200 {
		t.Errorf("rows = %d, want 1200", res.Len())
	}
	// Candidate reductions with SF < 1: SS c1|rare (40/44, winner for c1),
	// SS c1|c2 (42/44, loser), SS c2|rare (30/32, winner for c2).
	rare := ds.Dict.Lookup(rdf.NewIRI("urn:rare"))
	for i, p := range map[int]string{0: "urn:c1", 2: "urn:c2"} {
		key := layout.ExtKey{Kind: layout.SS, P1: ds.Dict.Lookup(rdf.NewIRI(p)), P2: rare}
		if want := layout.ExtVPName(ds.Dict, key) + "[bits]"; res.Plan[i].Table != want {
			t.Errorf("plan[%d] table = %q, want %q", i, res.Plan[i].Table, want)
		}
	}
}

// TestStatsImmutableUnderQueries: a dataset's statistics are final once it
// is built. Star and path queries run concurrently while Sizes and Save
// read the dataset; neither Info nor Sizes may move, and a repeated query's
// cached selection stays a hit.
func TestStatsImmutableUnderQueries(t *testing.T) {
	ds := layout.Build(starTriples(), layout.DefaultOptions())
	e := newPlannerEngine(ds, 4)
	info, sizes := maps.Clone(ds.Info), ds.Sizes()
	if _, err := e.Query(starQuery); err != nil {
		t.Fatal(err)
	}

	queries := []string{starQuery, `SELECT * WHERE { ?x <urn:c1> ?y . ?y <urn:c2> ?z }`}
	dir := t.TempDir()
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 10 {
				if _, err := e.Query(queries[(w+n)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 20 {
			ds.Sizes()
		}
		if err := layout.Save(ds, dir); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	if !maps.Equal(ds.Info, info) {
		t.Errorf("Info moved: %v, was %v", ds.Info, info)
	}
	if got := ds.Sizes(); got != sizes {
		t.Errorf("Sizes moved: %+v, was %+v", got, sizes)
	}
	res, err := e.Query(starQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectionCacheHits != 1 || res.SelectionCacheMisses != 0 {
		t.Errorf("selection hits/misses = %d/%d, want 1/0",
			res.SelectionCacheHits, res.SelectionCacheMisses)
	}
}

// TestSelectionCacheInvalidatesOnNewStats: statistics are final once a
// dataset is built, so new statistics arrive only with a new dataset, and
// New gives every engine its own selection cache. A selection made under
// one dataset's statistics must never answer a query on another: the
// second engine's first plan is a miss that follows its own statistics,
// and its repeat is a hit.
func TestSelectionCacheInvalidatesOnNewStats(t *testing.T) {
	plan := func(e *Engine) (tables []string, hits, misses int) {
		t.Helper()
		res, err := e.Query(starQuery)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Plan {
			tables = append(tables, p.Table)
		}
		return tables, res.SelectionCacheHits, res.SelectionCacheMisses
	}
	old := New(layout.Build(starTriples(), layout.DefaultOptions()), ModeExtVP)
	oldTables, _, _ := plan(old)
	if _, hits, _ := plan(old); hits != 1 {
		t.Fatalf("repeat on the first engine: hits = %d, want 1", hits)
	}

	// Giving every c1/c2 subject the rare predicate makes the SS
	// reductions against it equal to VP (SF 1), so the new statistics
	// select VP where the old ones selected ExtVP.
	ts := starTriples()
	for i := 0; i < 4; i++ {
		ts = append(ts, rdf.Triple{S: rdf.NewIRI("urn:t" + string(rune('0'+i))), P: rdf.NewIRI("urn:rare"), O: rdf.NewIRI("urn:v")})
	}
	ds := layout.Build(ts, layout.DefaultOptions())
	fresh := New(ds, ModeExtVP)
	if fresh.Selections == old.Selections {
		t.Fatal("engines share a selection cache")
	}
	tables, hits, misses := plan(fresh)
	if hits != 0 || misses != 1 {
		t.Errorf("new statistics: hits/misses = %d/%d, want 0/1", hits, misses)
	}
	uncached := &Engine{DS: ds, Cluster: engine.NewCluster(0), Mode: ModeExtVP, JoinOrderOpt: true}
	if want, _, _ := plan(uncached); !reflect.DeepEqual(tables, want) {
		t.Errorf("new-statistics plan = %v, want the uncached %v", tables, want)
	}
	if reflect.DeepEqual(tables, oldTables) {
		t.Fatalf("plans equal under both statistics (%v); test setup broken", tables)
	}
	if again, hits, _ := plan(fresh); hits != 1 || !reflect.DeepEqual(again, tables) {
		t.Errorf("repeat on the new engine: hits = %d, plan %v, want 1 and %v", hits, again, tables)
	}
}

// TestBoundTermSelectivityFlipsJoinOrder: on skewed data, a pattern over a
// big table with a bound object drawn from many distinct values (high NDV,
// so the bound term is highly selective) must now be ordered before a
// smaller table whose object column holds a single value (NDV 1, the bound
// term filters nothing). Table cardinalities alone order them the other way
// round.
func TestBoundTermSelectivityFlipsJoinOrder(t *testing.T) {
	iri := rdf.NewIRI
	big, small := iri("urn:big"), iri("urn:small")
	var ts []rdf.Triple
	// big: 300 triples, every object distinct → NDV(o) = 300, so
	// `?x big <o7>` is estimated at 300/300 = 1 row.
	for i := 0; i < 300; i++ {
		ts = append(ts, rdf.Triple{
			S: iri(fmt.Sprintf("urn:s%d", i)), P: big, O: iri(fmt.Sprintf("urn:o%d", i)),
		})
	}
	// small: 60 triples, all sharing one object → NDV(o) = 1; without
	// bound-term statistics its 60 rows would win the first slot.
	for i := 0; i < 60; i++ {
		ts = append(ts, rdf.Triple{
			S: iri(fmt.Sprintf("urn:s%d", i)), P: small, O: iri("urn:same"),
		})
	}
	ds := layout.Build(ts, layout.Options{BuildExtVP: false})
	e := &Engine{DS: ds, Cluster: engine.NewCluster(4), Mode: ModeVP, JoinOrderOpt: true}

	res, err := e.Query(`SELECT * WHERE { ?x <urn:small> ?z . ?x <urn:big> <urn:o7> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JoinOrder) != 2 || res.JoinOrder[0] != 1 {
		t.Fatalf("JoinOrder = %v, want the bound-object big pattern (index 1) first", res.JoinOrder)
	}
	if res.Plan[1].Rows != 300 || res.Plan[1].Est != 1 {
		t.Errorf("big pattern rows/est = %d/%d, want 300/1", res.Plan[1].Rows, res.Plan[1].Est)
	}
	if res.Plan[0].Est != 60 {
		t.Errorf("small pattern est = %d, want 60 (NDV 1 must not shrink it)", res.Plan[0].Est)
	}
	// The 1-row estimate also drives the join strategy: broadcasting the
	// tiny side beats shuffling 60+1 rows at 4 partitions.
	if len(res.Joins) != 1 || res.Joins[0].Strategy != "broadcast" {
		t.Errorf("Joins = %+v, want one broadcast", res.Joins)
	}
	if res.Len() != 1 {
		t.Errorf("rows = %d, want 1 (s7 has both predicates)", res.Len())
	}
}

// TestPlanJoinOrderIdentityWithoutOpt pins Algorithm 3: with the optimizer
// off, patterns execute in textual order whatever the statistics say.
func TestPlanJoinOrderIdentityWithoutOpt(t *testing.T) {
	ds := layout.Build(starTriples(), layout.DefaultOptions())
	e := newPlannerEngine(ds, 4)
	e.JoinOrderOpt = false
	res, err := e.Query(starQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.JoinOrder, []int{0, 1, 2}) {
		t.Errorf("JoinOrder = %v, want textual order", res.JoinOrder)
	}
}

// TestOptionalBroadcastsSmallRightSide: OPTIONAL (left join) never
// broadcast before the planner existed; a small right side is now
// replicated instead of shuffling both sides.
func TestOptionalBroadcastsSmallRightSide(t *testing.T) {
	ds := layout.Build(starTriples(), layout.DefaultOptions())
	e := newPlannerEngine(ds, 4)
	res, err := e.Query(`SELECT * WHERE {
		?x <urn:c1> ?a OPTIONAL { ?x <urn:rare> ?b }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	var opt *JoinPlan
	for i := range res.Joins {
		if res.Joins[i].Right == "OPTIONAL" {
			opt = &res.Joins[i]
		}
	}
	if opt == nil {
		t.Fatalf("no OPTIONAL join recorded: %+v", res.Joins)
	}
	if opt.Strategy != "broadcast" {
		t.Errorf("OPTIONAL strategy = %q (left %d, right %d), want broadcast",
			opt.Strategy, opt.LeftRows, opt.RightRows)
	}
	// Every c1 row of the hub keeps its binding; only the hub subject has
	// the rare value bound.
	if res.Len() != 44 {
		t.Errorf("rows = %d, want 44", res.Len())
	}
}
