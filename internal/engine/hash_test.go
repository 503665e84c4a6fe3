package engine

import "testing"

// TestHashID64DistributionDenseIDs checks the unified 64-bit Fibonacci hash
// on its worst realistic input: dictionary IDs are assigned densely from 0,
// so both consumers of hashID64 — shuffle partitioning (top 32 bits modulo
// the partition count) and index-table slots (top bits directly) — must
// spread consecutive integers evenly.
func TestHashID64DistributionDenseIDs(t *testing.T) {
	const n = 100000
	for _, parts := range []int{2, 3, 4, 7, 8, 16} {
		counts := make([]int, parts)
		for id := 0; id < n; id++ {
			counts[int((hashID64(uint64(id))>>32)%uint64(parts))]++
		}
		want := n / parts
		for p, got := range counts {
			if got < want*8/10 || got > want*12/10 {
				t.Errorf("parts=%d: partition %d holds %d of %d rows (expected ≈%d)",
					parts, p, got, n, want)
			}
		}
	}
	// Hashed index-table slots: dense keys in a table sized for them must
	// keep probe chains short. A join build over dense keys alone is direct
	// (newJoinTable); dense keys reach the hashed fallback once a Null key
	// widens the span, so they are what this table must still spread.
	// Average displacement beyond the home slot should stay near the
	// open-addressing ideal at load 0.5 (< 1 extra probe).
	const keys = 1 << 14
	tbl := newIndexTable(keys)
	extra := 0
	for k := 0; k < keys; k++ {
		home := int(hashID64(uint64(k)) >> tbl.shift)
		s := tbl.slot(uint64(k))
		d := s - home
		if d < 0 {
			d += len(tbl.head)
		}
		extra += d
		tbl.insert(uint64(k), int32(k))
	}
	if avg := float64(extra) / keys; avg > 1.0 {
		t.Errorf("dense keys: average probe displacement %.2f, want < 1.0", avg)
	}
}
