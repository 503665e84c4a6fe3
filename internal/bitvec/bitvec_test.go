package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Errorf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Errorf("Count = %d, want 8", b.Count())
	}
	if b.Len() != 130 {
		t.Errorf("Len = %d", b.Len())
	}
	if b.Bytes() != 24 {
		t.Errorf("Bytes = %d, want 24", b.Bytes())
	}
}

func TestReset(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 64, 129} {
		b.Set(i)
	}
	b.Reset()
	if b.Count() != 0 || b.Len() != 130 {
		t.Errorf("after Reset: Count = %d, Len = %d", b.Count(), b.Len())
	}
	b.Set(129)
	if !b.Get(129) {
		t.Error("Set after Reset failed")
	}
}

func TestCountMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		b := New(n)
		naive := make([]bool, n)
		for i := 0; i < n/2; i++ {
			k := rng.Intn(n)
			b.Set(k)
			naive[k] = true
		}
		count := 0
		for i, v := range naive {
			if v != b.Get(i) {
				return false
			}
			if v {
				count++
			}
		}
		return count == b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCountRange(t *testing.T) {
	b := New(200)
	set := []int{0, 1, 63, 64, 65, 127, 128, 130, 199}
	for _, i := range set {
		b.Set(i)
	}
	ref := func(lo, hi int) int {
		n := 0
		for _, i := range set {
			if i >= lo && i < hi {
				n++
			}
		}
		return n
	}
	cases := [][2]int{{0, 200}, {0, 64}, {64, 128}, {63, 65}, {1, 199},
		{199, 200}, {128, 128}, {130, 64}, {-5, 500}, {0, 1}, {64, 65}}
	for _, c := range cases {
		if got, want := b.CountRange(c[0], c[1]), ref(max(c[0], 0), min(c[1], 200)); got != want {
			t.Errorf("CountRange(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
	if got := b.CountRange(0, 200); got != b.Count() {
		t.Errorf("full range %d != Count %d", got, b.Count())
	}
}

// TestAppendSetMatchesGet checks the word-wise member walk against Get over
// random bitsets and ranges, including word boundaries and clamped ends.
func TestAppendSetMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		lo, hi := rng.Intn(n+10)-5, rng.Intn(n+10)-5
		var want []int32
		for i := max(lo, 0); i < min(hi, n); i++ {
			if b.Get(i) {
				want = append(want, int32(i))
			}
		}
		prefix := []int32{-1}
		got := b.AppendSet(prefix, lo, hi)
		if got[0] != -1 || len(got)-1 != len(want) {
			t.Fatalf("n=%d [%d,%d): got %v, want %v", n, lo, hi, got[1:], want)
		}
		for i, v := range want {
			if got[i+1] != v {
				t.Fatalf("n=%d [%d,%d): got %v, want %v", n, lo, hi, got[1:], want)
			}
		}
	}
}
