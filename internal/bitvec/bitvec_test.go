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
	b.Clear(64)
	if b.Get(64) || b.Count() != 7 {
		t.Errorf("Clear failed: %v %d", b.Get(64), b.Count())
	}
	if b.Len() != 130 {
		t.Errorf("Len = %d", b.Len())
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

func TestAnd(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	a.Set(50)
	a.Set(99)
	b.Set(50)
	b.Set(99)
	b.Set(0)
	c := a.And(b)
	if c.Count() != 2 || !c.Get(50) || !c.Get(99) || c.Get(3) || c.Get(0) {
		t.Errorf("And wrong: count=%d", c.Count())
	}
	// Inputs untouched.
	if a.Count() != 3 || b.Count() != 3 {
		t.Error("And mutated inputs")
	}
	a.AndInPlace(b)
	if a.Count() != 2 {
		t.Errorf("AndInPlace count = %d", a.Count())
	}
}

func TestAndLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(10).And(New(11))
}

func TestCloneAndWordsRoundTrip(t *testing.T) {
	b := New(70)
	b.Set(1)
	b.Set(69)
	c := b.Clone()
	c.Clear(1)
	if !b.Get(1) {
		t.Error("Clone shares storage")
	}
	r := FromWords(b.Len(), b.Words())
	if r.Count() != 2 || !r.Get(69) {
		t.Error("FromWords round trip failed")
	}
	if b.Bytes() != 16 {
		t.Errorf("Bytes = %d, want 16", b.Bytes())
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

func TestAndIsIntersectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		c := a.And(b)
		for i := 0; i < n; i++ {
			if c.Get(i) != (a.Get(i) && b.Get(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
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
