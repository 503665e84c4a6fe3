package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
)

// chainDataset builds n people with a numeric score and a group link — big
// enough to span several 1024-row engine batches and to make join builds
// worth spilling.
func chainDataset(t *testing.T, n int, seed int64) *layout.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	iri := rdf.NewIRI
	score, inGroup := iri("urn:score"), iri("urn:inGroup")
	var triples []rdf.Triple
	for i := 0; i < n; i++ {
		s := iri(fmt.Sprintf("urn:P%d", i))
		triples = append(triples,
			rdf.Triple{S: s, P: score, O: rdf.NewInteger(int64(rng.Intn(n / 2)))},
			rdf.Triple{S: s, P: inGroup, O: iri(fmt.Sprintf("urn:G%d", rng.Intn(50)))},
		)
	}
	return layout.Build(triples, layout.DefaultOptions())
}

func TestStreamDeliversAllRowsInBatches(t *testing.T) {
	ds := chainDataset(t, 4000, 1)
	e := New(ds, ModeVP)
	const q = `SELECT * WHERE { ?p <urn:score> ?s }`

	want, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 4000 {
		t.Fatalf("materialized query returned %d rows", want.Len())
	}

	s, err := e.QueryStream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Vars(), want.Vars) {
		t.Fatalf("stream vars %v, want %v", s.Vars(), want.Vars)
	}
	var rows [][]rdf.Term
	batches := 0
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		rows = append(rows, b...)
	}
	if batches < 2 {
		t.Fatalf("4000 rows arrived in %d batch(es); want incremental delivery", batches)
	}
	res := s.Result()
	res.Rows = rows
	if !reflect.DeepEqual(canon(res), canon(want)) {
		t.Fatal("streamed rows disagree with materialized result")
	}
	if res.TimeToFirstRow <= 0 || res.TimeToFirstRow > res.Duration {
		t.Fatalf("TimeToFirstRow = %v (Duration %v)", res.TimeToFirstRow, res.Duration)
	}
	if res.PeakMemBytes <= 0 {
		t.Fatalf("PeakMemBytes = %d", res.PeakMemBytes)
	}
}

// TestStreamNextAllocsPerBatch: Next decodes a batch straight from the
// engine's column block into one backing array of terms, so a 1024-row
// batch costs a handful of allocations, not one per row.
func TestStreamNextAllocsPerBatch(t *testing.T) {
	ds := chainDataset(t, 20000, 4)
	e := New(ds, ModeVP)
	s, err := e.QueryStream(context.Background(), `SELECT * WHERE { ?p <urn:score> ?s }`)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	rows := 0
	allocs := testing.AllocsPerRun(runs, func() {
		batch, err := s.Next()
		if err != nil || len(batch) == 0 {
			t.Fatalf("batch of %d rows, err %v", len(batch), err)
		}
		for _, row := range batch {
			if len(row) != 2 || row[0] == "" || row[1] == "" {
				t.Fatalf("row %v is not two decoded terms", row)
			}
		}
		rows += len(batch)
	})
	if perBatch := rows / (runs + 1); perBatch < 512 {
		t.Fatalf("batches average %d rows; the bound below is meant per ~1024 rows", perBatch)
	}
	if allocs > 6 {
		t.Fatalf("Next made %.0f allocations per batch, want at most 6", allocs)
	}
}

func TestStreamCancelledMidway(t *testing.T) {
	ds := chainDataset(t, 4000, 2)
	e := New(ds, ModeVP)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := e.QueryStream(ctx, `SELECT * WHERE { ?p <urn:score> ?s }`)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := s.Next(); err != nil || len(b) == 0 {
		t.Fatalf("first batch: %d rows, err %v", len(b), err)
	}
	cancel()
	for i := 0; ; i++ {
		b, err := s.Next()
		if err != nil {
			break // cancellation surfaced, as required
		}
		if b == nil {
			t.Fatal("stream ended cleanly despite cancellation")
		}
		if i > 1 {
			t.Fatal("stream kept producing batches after cancel")
		}
	}
}

func TestTopKPushdownBoundsSortState(t *testing.T) {
	ds := chainDataset(t, 3000, 3)
	e := New(ds, ModeVP)

	full, err := e.Query(`SELECT * WHERE { ?p <urn:score> ?s } ORDER BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Metrics.RowsSorted; got != 3000 {
		t.Fatalf("full ORDER BY metered RowsSorted=%d, want 3000", got)
	}

	topk, err := e.Query(`SELECT * WHERE { ?p <urn:score> ?s } ORDER BY ?s LIMIT 7 OFFSET 3`)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance assertion: ORDER BY+LIMIT holds offset+limit rows of
	// sort state, never the full result.
	if got := topk.Metrics.RowsSorted; got != 10 {
		t.Fatalf("top-k metered RowsSorted=%d, want 10", got)
	}
	if topk.Len() != 7 {
		t.Fatalf("LIMIT 7 OFFSET 3 returned %d rows", topk.Len())
	}
	// And the same rows the full sort would have delivered.
	want := full.Rows[3:10]
	if !reflect.DeepEqual(topk.Rows, want) {
		t.Fatalf("top-k rows = %v, want %v", topk.Rows, want)
	}
}

// TestTopKFusedIntoFinalJoin: ORDER BY … LIMIT over a join is taken by the
// final join (engine.JoinTopK), which gathers only each partition's window
// instead of the join's output. The rows must be those of the full sort,
// the sort state stays offset+limit rows, and the accounted intermediate
// state falls below that of the same query under DISTINCT, which keeps the
// plain join (every solution here is distinct, so the answer is the same).
func TestTopKFusedIntoFinalJoin(t *testing.T) {
	ds := chainDataset(t, 3000, 5)
	e := New(ds, ModeVP)
	const where = ` WHERE { ?p <urn:score> ?s . ?p <urn:inGroup> ?g } ORDER BY ?s ?p`
	full := mustQuery(t, e, `SELECT *`+where)
	fused := mustQuery(t, e, `SELECT *`+where+` LIMIT 7 OFFSET 3`)
	plain := mustQuery(t, e, `SELECT DISTINCT *`+where+` LIMIT 7 OFFSET 3`)
	if full.Len() != 3000 || len(fused.Joins) != 1 {
		t.Fatalf("%d solutions over %d joins, want 3000 over 1", full.Len(), len(fused.Joins))
	}
	for name, r := range map[string]*Result{"fused": fused, "DISTINCT": plain} {
		if !reflect.DeepEqual(r.Rows, full.Rows[3:10]) {
			t.Fatalf("%s rows = %v, want %v", name, r.Rows, full.Rows[3:10])
		}
		if r.Metrics.RowsSorted != 10 {
			t.Errorf("%s metered RowsSorted=%d, want 10", name, r.Metrics.RowsSorted)
		}
	}
	if fused.PeakMemBytes >= plain.PeakMemBytes {
		t.Errorf("fused top-k accounted %d B of intermediate state, the plain join %d B", fused.PeakMemBytes, plain.PeakMemBytes)
	}
}

func TestTopKDescendingAndDuplicates(t *testing.T) {
	ds := chainDataset(t, 500, 4)
	e := New(ds, ModeVP)
	full, err := e.Query(`SELECT * WHERE { ?p <urn:score> ?s } ORDER BY DESC(?s) ?p`)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := e.Query(`SELECT * WHERE { ?p <urn:score> ?s } ORDER BY DESC(?s) ?p LIMIT 20`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(topk.Rows, full.Rows[:20]) {
		t.Fatalf("descending top-k disagrees with full sort:\n%v\nvs\n%v", topk.Rows[:5], full.Rows[:5])
	}
}

func TestMemBudgetSpillEquivalenceSPARQL(t *testing.T) {
	// A join query under a 1-byte budget must spill its builds and still
	// agree with the unbounded run — the ISSUE's acceptance criterion at
	// the SPARQL level. The object-object shape (same-score pairs) keeps
	// the join on the shuffle hash-join path, the one that spills.
	ds := chainDataset(t, 2000, 5)
	const q = `SELECT * WHERE { ?a <urn:score> ?s . ?b <urn:score> ?s }`

	free := New(ds, ModeVP)
	want, err := free.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Metrics.BytesSpilled != 0 {
		t.Fatalf("unbounded run spilled %d bytes", want.Metrics.BytesSpilled)
	}

	tight := New(ds, ModeVP)
	tight.MemBudget = 1
	tight.SpillDir = t.TempDir()
	got, err := tight.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.BytesSpilled == 0 {
		t.Fatal("budgeted join spilled nothing")
	}
	if got.PeakMemBytes <= 0 {
		t.Fatalf("PeakMemBytes = %d", got.PeakMemBytes)
	}
	if !reflect.DeepEqual(canon(got), canon(want)) {
		t.Fatal("spilled join disagrees with unbounded execution")
	}
}

// cancelOnSpill cancels its query once the first spill run is on disk.
type cancelOnSpill struct{ cancel context.CancelFunc }

func (c cancelOnSpill) ReportIOSuccess()      { c.cancel() }
func (c cancelOnSpill) ReportIOFailure(error) {}

// TestSpilledBytesCountsEveryQuery checks the engine's running spill total
// takes each query's BytesSpilled once: a query cancelled after it spilled
// still counts, and a completed one adds exactly its own figure.
func TestSpilledBytesCountsEveryQuery(t *testing.T) {
	ds := chainDataset(t, 2000, 5)
	const q = `SELECT * WHERE { ?a <urn:score> ?s . ?b <urn:score> ?s }`
	e := New(ds, ModeVP)
	e.MemBudget = 1
	e.SpillDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.Faults = cancelOnSpill{cancel}
	if _, err := e.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cancelled := e.SpilledBytes()
	if cancelled <= 0 {
		t.Fatalf("SpilledBytes after a query cancelled mid-spill = %d, want positive", cancelled)
	}
	e.Faults = nil
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.SpilledBytes(), cancelled+res.Metrics.BytesSpilled; got != want || res.Metrics.BytesSpilled == 0 {
		t.Fatalf("SpilledBytes = %d, want %d + %d", got, cancelled, res.Metrics.BytesSpilled)
	}
}

func TestStreamAskAndLimitZero(t *testing.T) {
	ds := chainDataset(t, 100, 6)
	e := New(ds, ModeVP)

	s, err := e.QueryStream(context.Background(), `ASK { ?p <urn:score> ?s }`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Ask() {
		t.Fatal("ASK = false on non-empty pattern")
	}
	if b, err := s.Next(); b != nil || err != nil {
		t.Fatalf("ASK stream delivered rows: %v, %v", b, err)
	}

	res, err := e.Query(`SELECT * WHERE { ?p <urn:score> ?s } LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 || len(res.Vars) == 0 {
		t.Fatalf("LIMIT 0: %d rows, vars %v", res.Len(), res.Vars)
	}
}
