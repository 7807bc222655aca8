package matrix

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewBitMatrixShape(t *testing.T) {
	m := NewBitMatrix(3, 5)
	for i := 0; i < 3; i++ {
		if r := m.Row(i); r.Len() != 5 || r.Count() != 0 {
			t.Fatalf("row %d: %d bits, %d set; want 5 bits, none set", i, r.Len(), r.Count())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Row(3) of a 3-row matrix did not panic")
		}
	}()
	m.Row(3)
}

func TestNegativeShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBitMatrix(-1, 2) did not panic")
		}
	}()
	NewBitMatrix(-1, 2)
}

func TestSetGetClear(t *testing.T) {
	m := NewBitMatrix(2, 70)
	m.Set(0, 0)
	m.Set(1, 69)
	if !m.Row(0).Get(0) || !m.Row(1).Get(69) {
		t.Fatal("Get after Set failed")
	}
	if m.Row(0).Get(69) {
		t.Fatal("unset cell reads true")
	}
	m.Row(1).Clear(69)
	if m.Row(1).Get(69) {
		t.Fatal("Clear failed")
	}
}

func TestRowOutOfRangePanics(t *testing.T) {
	m := NewBitMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Row(5) did not panic")
		}
	}()
	m.Row(5)
}

// paperRUAM lists the RUAM from Figure 1 of the paper: 5 roles × 4
// users. R01={U01}, R02={U01,U02}, R03={}, R04={U01,U02}, R05={U04}.
var paperRUAM = [][]int{{0}, {0, 1}, {}, {0, 1}, {3}}

func TestRowSumsPaperExample(t *testing.T) {
	c := CSRFromLists(4, paperRUAM)
	want := []int{1, 2, 0, 2, 1}
	got := make([]int, c.Rows())
	for i := range got {
		got[i] = c.RowSum(i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RowSums = %v, want %v", got, want)
	}
	if got := c.RowSum(1); got != 2 {
		t.Fatalf("RowSum(1) = %d, want 2", got)
	}
}

func TestColSumsAndZeroCols(t *testing.T) {
	c := CSRFromLists(4, paperRUAM)
	want := []int{3, 2, 0, 1}
	sums := c.ColSums()
	if !reflect.DeepEqual(sums, want) {
		t.Fatalf("ColSums = %v, want %v", sums, want)
	}
	var zero []int
	for j, n := range sums {
		if n == 0 {
			zero = append(zero, j)
		}
	}
	if !reflect.DeepEqual(zero, []int{2}) {
		t.Fatalf("ZeroCols = %v, want [2]", zero)
	}
}

// randLists draws a rows x cols matrix as ascending column lists, each
// cell set with probability density.
func randLists(r *rand.Rand, rows, cols int, density float64) [][]int {
	lists := make([][]int, rows)
	for i := range lists {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				lists[i] = append(lists[i], j)
			}
		}
	}
	return lists
}

// csrMatchesDense reports whether every CSR row lists exactly the set
// columns of the dense row, in ascending order.
func csrMatchesDense(c *CSR, m *BitMatrix) bool {
	nnz := 0
	for i := 0; i < c.Rows(); i++ {
		if !slices.Equal(c.RowCols(i), m.Row(i).Indices()) {
			return false
		}
		nnz += m.Row(i).Count()
	}
	return c.NNZ() == nnz
}

func TestCSRRoundTrip(t *testing.T) {
	c := CSRFromLists(4, paperRUAM)
	if c.Rows() != 5 || c.Cols() != 4 || c.NNZ() != 6 {
		t.Fatalf("shape %dx%d with %d cells, want 5x4 with 6", c.Rows(), c.Cols(), c.NNZ())
	}
	for i, want := range paperRUAM {
		if got := c.RowCols(i); !slices.Equal(got, want) {
			t.Fatalf("RowCols(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestCSRRowColsAndGet(t *testing.T) {
	c := CSRFromLists(4, paperRUAM)
	if got := c.RowCols(1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("RowCols(1) = %v, want [0 1]", got)
	}
	if got := c.RowCols(2); len(got) != 0 {
		t.Fatalf("RowCols(2) = %v, want empty", got)
	}
	if got := c.RowCols(4); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("RowCols(4) = %v, want [3]", got)
	}
	if c.RowSum(3) != 2 {
		t.Fatalf("RowSum(3) = %d, want 2", c.RowSum(3))
	}
}

func TestCSRColSums(t *testing.T) {
	c := CSRFromLists(4, paperRUAM)
	if got := c.ColSums(); !reflect.DeepEqual(got, []int{3, 2, 0, 1}) {
		t.Fatalf("ColSums = %v", got)
	}
}

// TestPropertyCSRMatchesDense builds both forms from the same cells:
// the CSR rows must list exactly the dense rows' set columns.
func TestPropertyCSRMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(20), 1+r.Intn(60)
		lists := randLists(r, rows, cols, 0.3)
		m := NewBitMatrix(rows, cols)
		for i, l := range lists {
			for _, j := range l {
				m.Set(i, j)
			}
		}
		return csrMatchesDense(CSRFromLists(cols, lists), m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryEstimates(t *testing.T) {
	lists := make([][]int, 100)
	for i := range lists {
		lists[i] = []int{i}
	}
	c := CSRFromLists(1000, lists)
	dense := MemoryBytesDense(100, 1000)
	if dense != 8*100*16 {
		t.Fatalf("dense estimate = %d", dense)
	}
	// 100 nnz + 101 row pointers, far below the dense footprint.
	if c.MemoryBytes() >= dense {
		t.Fatalf("sparse %d should beat dense %d at this density", c.MemoryBytes(), dense)
	}
}

func TestNewCSRNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCSR(-1, 1) did not panic")
		}
	}()
	NewCSR(-1, 1)
}
