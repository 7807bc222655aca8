package bitvec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewZero(t *testing.T) {
	v := New(0)
	if v.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", v.Len())
	}
	if v.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", v.Count())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130) // spans three words
	positions := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, p := range positions {
		v.Set(p)
	}
	for _, p := range positions {
		if !v.Get(p) {
			t.Errorf("Get(%d) = false after Set", p)
		}
	}
	if got := v.Count(); got != len(positions) {
		t.Fatalf("Count() = %d, want %d", got, len(positions))
	}
	for _, p := range positions {
		v.Clear(p)
		if v.Get(p) {
			t.Errorf("Get(%d) = true after Clear", p)
		}
	}
	if v.Count() != 0 {
		t.Fatal("bits left set after clearing all of them")
	}
}

func TestIndexPanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	v := FromIndices(70, []int{1, 65})
	c := v.Clone()
	c.Set(2)
	if v.Get(2) {
		t.Fatal("mutating clone affected original")
	}
	if !c.Get(65) {
		t.Fatal("clone lost bit 65")
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if New(5).Equal(New(6)) {
		t.Fatal("vectors of different length compared equal")
	}
}

func TestAlgebraLengthMismatchPanics(t *testing.T) {
	for name, op := range map[string]func(a, b *Vector){
		"Hamming":           func(a, b *Vector) { a.Hamming(b) },
		"IntersectionCount": func(a, b *Vector) { a.IntersectionCount(b) },
		"HammingAtMost":     func(a, b *Vector) { a.HammingAtMost(b, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched lengths did not panic", name)
				}
			}()
			op(New(5), New(6))
		}()
	}
}

func TestCounts(t *testing.T) {
	a := FromIndices(200, []int{0, 64, 128, 199})
	b := FromIndices(200, []int{0, 65, 128, 198})
	if got := a.IntersectionCount(b); got != 2 {
		t.Errorf("IntersectionCount = %d, want 2", got)
	}
	if got := a.Hamming(b); got != 4 {
		t.Errorf("Hamming = %d, want 4", got)
	}
}

func TestHammingAtMost(t *testing.T) {
	a := FromIndices(100, []int{1, 2, 3})
	b := FromIndices(100, []int{1, 2, 4})
	tests := []struct {
		k    int
		want bool
	}{
		{-1, false},
		{0, false},
		{1, false},
		{2, true},
		{3, true},
		{100, true},
	}
	for _, tt := range tests {
		if got := a.HammingAtMost(b, tt.k); got != tt.want {
			t.Errorf("HammingAtMost(k=%d) = %v, want %v", tt.k, got, tt.want)
		}
	}
	if !a.HammingAtMost(a, 0) {
		t.Error("HammingAtMost(self, 0) = false")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	v := FromIndices(100, []int{1, 5, 80})
	var seen []int
	v.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 5}) {
		t.Fatalf("ForEach early stop saw %v, want [1 5]", seen)
	}
}

func TestFloats(t *testing.T) {
	v := FromIndices(4, []int{1, 3})
	want := []float64{0, 1, 0, 1}
	if got := v.Floats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Floats() = %v, want %v", got, want)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	v := FromIndices(9, []int{0, 4, 8})
	s := v.String()
	if s != "100010001" {
		t.Fatalf("String() = %q", s)
	}
	back, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !v.Equal(back) {
		t.Fatal("Parse(String()) round trip failed")
	}
}

func TestParseInvalid(t *testing.T) {
	if _, err := Parse("01x"); err == nil {
		t.Fatal("Parse accepted invalid character")
	}
}

// randVector builds a deterministic pseudo-random vector for property tests.
func randVector(rng *rand.Rand, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

func TestPropertyHammingIdentity(t *testing.T) {
	// Hamming(a,b) == |a| + |b| - 2*|a AND b| for all binary vectors.
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := randVector(r, n)
		b := randVector(r, n)
		return a.Hamming(b) == a.Count()+b.Count()-2*a.IntersectionCount(b)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyXorMatchesHamming(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := randVector(r, n)
		b := randVector(r, n)
		// a XOR b, built bit by bit.
		x := New(n)
		for i := 0; i < n; i++ {
			if a.Get(i) != b.Get(i) {
				x.Set(i)
			}
		}
		return x.Count() == a.Hamming(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIndicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := randVector(r, n)
		return a.Equal(FromIndices(n, a.Indices()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHammingSymmetricAndTriangle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a := randVector(r, n)
		b := randVector(r, n)
		c := randVector(r, n)
		if a.Hamming(b) != b.Hamming(a) {
			return false
		}
		if a.Hamming(a) != 0 {
			return false
		}
		return a.Hamming(c) <= a.Hamming(b)+b.Hamming(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHamming1000(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randVector(r, 1000)
	y := randVector(r, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Hamming(y)
	}
}

func BenchmarkIntersectionCount1000(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randVector(r, 1000)
	y := randVector(r, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectionCount(y)
	}
}

func TestHammingBatchMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// Widths straddle word boundaries and the 4-way unroll remainder:
	// 0-3 trailing words and mid-word tails.
	for _, width := range []int{1, 7, 63, 64, 65, 128, 130, 191, 192, 256, 257, 300, 1000} {
		rows := make([]*Vector, 9)
		for i := range rows {
			rows[i] = randVector(r, width)
		}
		q := randVector(r, width)
		dst := make([]int, len(rows))
		HammingBatch(dst, rows, q)
		for i, row := range rows {
			if want := q.Hamming(row); dst[i] != want {
				t.Fatalf("width %d row %d: batch %d != scalar %d", width, i, dst[i], want)
			}
		}
	}
}

func TestHammingBatchEmptyRows(t *testing.T) {
	q := New(100)
	HammingBatch(nil, nil, q) // no rows: must not touch dst
}

func TestHammingBatchPanics(t *testing.T) {
	q := New(64)
	rows := []*Vector{New(64), New(64)}
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("short dst", func() { HammingBatch(make([]int, 1), rows, q) })
	assertPanics("width mismatch", func() { HammingBatch(make([]int, 2), []*Vector{New(65), New(64)}, q) })
}

func BenchmarkHammingBatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const (
		width = 1000
		n     = 512
	)
	rows := make([]*Vector, n)
	for i := range rows {
		rows[i] = randVector(r, width)
	}
	q := randVector(r, width)
	dst := make([]int, n)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			HammingBatch(dst, rows, q)
		}
	})
	b.Run("scalar-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, row := range rows {
				dst[j] = q.Hamming(row)
			}
		}
	})
}
