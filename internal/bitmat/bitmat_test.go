package bitmat

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
)

// randRows builds n random rows of the given width with roughly the
// given density of set bits.
func randRows(rng *rand.Rand, n, cols int, density float64) []*bitvec.Vector {
	rows := make([]*bitvec.Vector, n)
	for i := range rows {
		v := bitvec.New(cols)
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				v.Set(j)
			}
		}
		rows[i] = v
	}
	return rows
}

// checkPadding fails the test if any padding word of any row is nonzero.
func checkPadding(t *testing.T, m *Matrix) {
	t.Helper()
	for i := 0; i < m.Rows(); i++ {
		view := m.RowView(i)
		for k := m.Words(); k < len(view); k++ {
			if view[k] != 0 {
				t.Fatalf("row %d padding word %d is %#x, want 0", i, k, view[k])
			}
		}
	}
}

func TestFromRowsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cols := range []int{0, 1, 5, 63, 64, 65, 127, 128, 200, 511, 512, 513, 1000} {
		rows := randRows(rng, 17, cols, 0.3)
		m, err := FromRows(rows)
		if err != nil {
			t.Fatalf("cols=%d: FromRows: %v", cols, err)
		}
		if m.Rows() != len(rows) || m.Cols() != cols {
			t.Fatalf("cols=%d: shape %dx%d, want %dx%d", cols, m.Rows(), m.Cols(), len(rows), cols)
		}
		if m.stride%lineWords != 0 {
			t.Fatalf("cols=%d: stride %d not a multiple of %d", cols, m.stride, lineWords)
		}
		checkPadding(t, m)
		for i, r := range rows {
			if got, want := m.Norm(i), r.Count(); got != want {
				t.Fatalf("cols=%d: Norm(%d)=%d, want %d", cols, i, got, want)
			}
			for j := 0; j < cols; j++ {
				if m.Get(i, j) != r.Get(j) {
					t.Fatalf("cols=%d: Get(%d,%d)=%v, want %v", cols, i, j, m.Get(i, j), r.Get(j))
				}
			}
		}
		for i := range rows {
			for j := range rows {
				if got, want := m.Hamming(i, j), rows[i].Hamming(rows[j]); got != want {
					t.Fatalf("cols=%d: Hamming(%d,%d)=%d, want %d", cols, i, j, got, want)
				}
				if got, want := m.Intersection(i, j), rows[i].IntersectionCount(rows[j]); got != want {
					t.Fatalf("cols=%d: Intersection(%d,%d)=%d, want %d", cols, i, j, got, want)
				}
				if got, want := m.RowEqual(i, j), rows[i].Equal(rows[j]); got != want {
					t.Fatalf("cols=%d: RowEqual(%d,%d)=%v, want %v", cols, i, j, got, want)
				}
				if rows[i].Equal(rows[j]) && m.RowHash(i) != m.RowHash(j) {
					t.Fatalf("cols=%d: equal rows %d,%d hash differently", cols, i, j)
				}
			}
		}
	}
}

func TestHammingBlockParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randRows(rng, 200, 300, 0.25)
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	queries := []int32{0, 7, 199, 42, 42, 100}
	for _, span := range [][2]int{{0, 200}, {13, 157}, {50, 50}, {199, 200}} {
		lo, hi := span[0], span[1]
		width := hi - lo
		dst := make([]int32, len(queries)*width)
		m.HammingBlock(dst, queries, lo, hi)
		for qi, q := range queries {
			for j := lo; j < hi; j++ {
				want := rows[q].Hamming(rows[j])
				if got := int(dst[qi*width+(j-lo)]); got != want {
					t.Fatalf("span [%d,%d): dist(q=%d, %d)=%d, want %d", lo, hi, q, j, got, want)
				}
			}
		}
	}
}

func TestNeighborsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := randRows(rng, 120, 150, 0.2)
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, kmax := range []int{-1, 0, 1, 3, 10, 150} {
		for _, span := range [][2]int{{0, 120}, {20, 90}} {
			lo, hi := span[0], span[1]
			for p := 0; p < 120; p += 7 {
				var want []int32
				for j := lo; j < hi; j++ {
					if kmax >= 0 && rows[p].Hamming(rows[j]) <= kmax {
						want = append(want, int32(j))
					}
				}
				got := m.NeighborsAppend(nil, p, lo, hi, kmax)
				if len(got) != len(want) {
					t.Fatalf("p=%d kmax=%d span [%d,%d): got %d neighbors, want %d", p, kmax, lo, hi, len(got), len(want))
				}
				for x := range got {
					if got[x] != want[x] {
						t.Fatalf("p=%d kmax=%d: neighbor %d is %d, want %d", p, kmax, x, got[x], want[x])
					}
				}
			}
			queries := []int32{0, 7, 14, 21, 28, 35, 42, 49, 56, 63, 119}
			neigh := make([][]int32, len(queries))
			m.NeighborsInto(neigh, queries, lo, hi, kmax)
			for qi, p := range queries {
				want := m.NeighborsAppend(nil, int(p), lo, hi, kmax)
				got := neigh[qi]
				if len(got) != len(want) {
					t.Fatalf("NeighborsInto q=%d kmax=%d: got %d, want %d", p, kmax, len(got), len(want))
				}
				for x := range got {
					if got[x] != want[x] {
						t.Fatalf("NeighborsInto q=%d kmax=%d: entry %d is %d, want %d", p, kmax, x, got[x], want[x])
					}
				}
			}
		}
	}
}

// TestNeighborsNormBoundary pins the strictness of the pruning bound:
// a candidate with ||a|-|b|| == kmax must NOT be pruned — its distance
// can still equal kmax exactly.
func TestNeighborsNormBoundary(t *testing.T) {
	// Row 0: bits {0,1}. Row 1: bits {0,1,2} — norm gap 1, distance 1.
	// Row 2: bits {5,6,7} — norm gap 1, distance 5 (norm bound alone
	// would admit it; the popcount must reject it).
	a := bitvec.FromIndices(10, []int{0, 1})
	b := bitvec.FromIndices(10, []int{0, 1, 2})
	c := bitvec.FromIndices(10, []int{5, 6, 7})
	m, err := FromRows([]*bitvec.Vector{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	got := m.NeighborsAppend(nil, 0, 0, 3, 1)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("neighbors of row 0 at kmax=1: %v, want [0 1]", got)
	}
}

// TestPackParity: packing sparse rows lays out the same arena as
// packing the equivalent row vectors.
func TestPackParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cols := range []int{1, 63, 64, 130} {
		rows := randRows(rng, 50, cols, 0.3)
		lists := make([][]int32, len(rows))
		for i, r := range rows {
			for _, j := range r.Indices() {
				lists[i] = append(lists[i], int32(j))
			}
		}
		m := Pack(cols, lists)
		ref, err := FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		if m.Rows() != ref.Rows() || m.Cols() != ref.Cols() {
			t.Fatalf("cols=%d: shape %dx%d, want %dx%d", cols, m.Rows(), m.Cols(), ref.Rows(), ref.Cols())
		}
		checkPadding(t, m)
		for i := range rows {
			if m.Norm(i) != ref.Norm(i) {
				t.Fatalf("cols=%d: Norm(%d)=%d, want %d", cols, i, m.Norm(i), ref.Norm(i))
			}
			if !slices.Equal(m.RowView(i), ref.RowView(i)) {
				t.Fatalf("cols=%d: row %d differs", cols, i)
			}
		}
	}
}

func TestSetAndNorms(t *testing.T) {
	m := New(3, 100)
	m.Set(0, 5)
	m.Set(0, 5) // idempotent
	m.Set(0, 99)
	m.Set(2, 64)
	if m.Norm(0) != 2 || m.Norm(1) != 0 || m.Norm(2) != 1 {
		t.Fatalf("norms = %d,%d,%d, want 2,0,1", m.Norm(0), m.Norm(1), m.Norm(2))
	}
	if !m.Get(0, 5) || !m.Get(0, 99) || !m.Get(2, 64) || m.Get(1, 5) {
		t.Fatal("Get/Set mismatch")
	}
	if m.Hamming(0, 2) != 3 {
		t.Fatalf("Hamming(0,2)=%d, want 3", m.Hamming(0, 2))
	}
	if got := m.RowWords(0); len(got) != 2 || got[0] != 1<<5 || got[1] != 1<<(99-64) {
		t.Fatalf("RowWords(0) = %#x, want bits 5 and 99 only", got)
	}
}

func TestEmptyMatrix(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("empty FromRows shape %dx%d", m.Rows(), m.Cols())
	}
	z := New(4, 0)
	if z.Hamming(0, 3) != 0 || !z.RowEqual(0, 1) || z.Norm(2) != 0 {
		t.Fatal("zero-width matrix misbehaves")
	}
}
