package engine

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"s2rdf/internal/dict"
)

// TestScratchReuseConcurrentJoins runs broadcast and shuffle joins from
// several goroutines at once, each on its own execution over shared inputs,
// so pooled pair vectors pass from join to join: a join's lazy output holds
// its own copy of its pair vectors, and a top-k join puts its pooled ones
// back once its winners are gathered, while other queries' lazy outputs are
// still alive. Only after every join has finished are the outputs checked:
// each must still equal the reference, and no output block's storage (a
// dense block's columns, a lazy block's row-id vectors) may overlap
// another's. A block that aliased a pooled vector would by then hold
// another join's pairs.
func TestScratchReuseConcurrentJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := func(n, keys int) []Row {
		out := make([]Row, n)
		for i := range out {
			out[i] = Row{dict.ID(rng.Intn(keys)), dict.ID(i)}
		}
		return out
	}
	big, small := rows(3000, 400), rows(60, 400)
	ref := NewCluster(4).exec()
	refJoin := ref.JoinWith(ref.FromRows([]string{"k", "a"}, big), ref.FromRows([]string{"k", "b"}, small), StrategyShuffle)
	want := sortedRows(refJoin)
	byB := []SortCol{{Col: 2, Desc: true}, {Col: 1}}
	wantTop := ref.TopK(refJoin, 5, byB, idKey).Rows()

	const workers, rounds = 8, 20
	outs := make([][]*Relation, workers)
	tops := make([][]*Relation, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				x := NewCluster(1 + (w+r)%4).exec()
				l, s := x.FromRows([]string{"k", "a"}, big), x.FromRows([]string{"k", "b"}, small)
				strat := StrategyBroadcast
				if r%3 == 2 {
					strat = StrategyShuffle
				}
				outs[w] = append(outs[w], x.JoinWith(l, s, strat))
				top, _ := x.JoinTopK(l, s, strat, 5, byB, idKey)
				tops[w] = append(tops[w], top)
			}
		}()
	}
	wg.Wait()

	type span struct{ lo, hi uintptr }
	var spans []span
	add := func(data unsafe.Pointer, n int, size uintptr) {
		if n > 0 {
			lo := uintptr(data)
			spans = append(spans, span{lo, lo + uintptr(n)*size})
		}
	}
	for w, rels := range outs {
		for i, rel := range rels {
			if got := sortedRows(rel); !reflect.DeepEqual(got, want) {
				t.Fatalf("join output changed after the fact: %d rows, want %d", len(got), len(want))
			}
			if got := tops[w][i].Rows(); !reflect.DeepEqual(got, wantTop) {
				t.Fatalf("top-k join returned %v, want %v", got, wantTop)
			}
			for _, blk := range rel.Parts {
				if blk == nil {
					continue
				}
				for _, col := range blk.cols {
					add(unsafe.Pointer(unsafe.SliceData(col)), cap(col), unsafe.Sizeof(col[0]))
				}
				if blk.lz != nil {
					for _, sel := range blk.lz.sel {
						add(unsafe.Pointer(unsafe.SliceData(sel)), cap(sel), unsafe.Sizeof(sel[0]))
					}
				}
			}
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("two output blocks share storage")
			}
		}
	}
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestBroadcastJoinAllocatesOnlyItsOutput pins a warmed broadcast join's
// allocation. Every join gathers and builds its small side itself, and its
// pair vectors come from the pool, so a repeat join allocates its output
// relation and blocks, its own build state (the gathered small side and
// its join table) and a few fixed-size headers, never a vector sized by
// the probe side: 32 768 probe rows of which 64 match may cost the output's
// and the build's bytes and 4 KiB, not the 256 KiB that probe-sized pair
// vectors would take. Nor may the bytes grow with the probe side: the same
// join over a big side four times larger costs no more. The allocation
// count is not checked under the race detector, which empties the pool at
// random; the byte bounds still are.
func TestBroadcastJoinAllocatesOnlyItsOutput(t *testing.T) {
	measure := func(bigRows int) (allocs float64, perJoin, bound uint64) {
		x := NewCluster(4).exec()
		big := make([]Row, bigRows)
		for i := range big {
			big[i] = Row{dict.ID(i), dict.ID(i)}
		}
		var small []Row
		for i := 0; i < len(big); i += len(big) / 64 {
			small = append(small, Row{dict.ID(i), 7})
		}
		l, s := x.FromRows([]string{"k", "a"}, big), x.FromRows([]string{"k", "b"}, small)
		out := x.JoinWith(l, s, StrategyBroadcast) // warm: fill the pool
		if out.NumRows() != len(small) {
			t.Fatalf("join returned %d rows, want %d", out.NumRows(), len(small))
		}
		outBytes := uint64(out.NumRows() * len(out.Schema) * idBytes)
		buildBytes := uint64(tableBytes(len(small))) + uint64(len(small)*len(s.Schema)*idBytes)
		bound = outBytes + buildBytes + 4<<10

		allocs = testing.AllocsPerRun(20, func() { x.JoinWith(l, s, StrategyBroadcast) })
		// The least of three batches: the runtime's own background
		// allocations land in a batch now and then.
		perJoin = math.MaxUint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			const runs = 20
			for range runs {
				x.JoinWith(l, s, StrategyBroadcast)
			}
			runtime.ReadMemStats(&after)
			perJoin = min(perJoin, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		t.Logf("warmed broadcast join, %d probe rows: %.0f allocations, %d B (output %d B, build %d B)",
			bigRows, allocs, perJoin, outBytes, buildBytes)
		return allocs, perJoin, bound
	}
	allocs, perJoin, bound := measure(1 << 15)
	// Up to 40 allocations for the output and the join's fixed headers,
	// plus exactly the build's own 8: the gathered small side (block
	// header, column slice, buffer), its table (header and three arrays)
	// and the joinBuild.
	if allocs > 48 && !raceDetector {
		t.Errorf("warmed broadcast join made %.0f allocations, want at most 48", allocs)
	}
	if perJoin > bound {
		t.Errorf("warmed broadcast join allocated %d B, want at most its output and build + 4 KiB = %d B", perJoin, bound)
	}
	// 98 304 more probe rows may not cost even one more byte per 96 rows:
	// the 1 KiB is the measurement's noise, not room to grow.
	if _, perJoinBig, _ := measure(1 << 17); perJoinBig > perJoin+1<<10 {
		t.Errorf("bytes per join grew from %d B to %d B with the probe side from 2^15 to 2^17 rows", perJoin, perJoinBig)
	}
}
