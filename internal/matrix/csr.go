package matrix

import "fmt"

// CSR is a compressed-sparse-row view of a boolean matrix: for each row
// only the sorted column indices of set cells are stored. The paper notes
// (§III-B) that sparse representations can further reduce the r*(u+p)
// memory footprint at the cost of conversion time; the benchmark harness
// measures that trade-off.
type CSR struct {
	// RowPtr has len Rows+1; the set columns of row i are
	// ColIdx[RowPtr[i]:RowPtr[i+1]], sorted ascending.
	RowPtr []int
	ColIdx []int
	// NRows and NCols give the logical shape (trailing all-zero rows and
	// columns are representable).
	NRows, NCols int
}

// NewCSR builds an empty CSR with the given shape.
func NewCSR(rows, cols int) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative shape %dx%d", rows, cols))
	}
	return &CSR{
		RowPtr: make([]int, rows+1),
		NRows:  rows,
		NCols:  cols,
	}
}

// CSRFromLists builds a CSR matrix of the given width from one column
// list per row. Each list must ascend strictly and stay inside
// [0, cols); CSRFromLists panics otherwise.
func CSRFromLists(cols int, rows [][]int) *CSR {
	c := NewCSR(len(rows), cols)
	nnz := 0
	for _, r := range rows {
		nnz += len(r)
	}
	c.ColIdx = make([]int, 0, nnz)
	for i, r := range rows {
		for k, j := range r {
			if j < 0 || j >= cols || (k > 0 && j <= r[k-1]) {
				panic(fmt.Sprintf("matrix: row %d: column list %v not ascending in [0,%d)", i, r, cols))
			}
		}
		c.ColIdx = append(c.ColIdx, r...)
		c.RowPtr[i+1] = len(c.ColIdx)
	}
	return c
}

// Rows returns the number of rows.
func (c *CSR) Rows() int { return c.NRows }

// Cols returns the number of columns.
func (c *CSR) Cols() int { return c.NCols }

// NNZ returns the number of stored (set) cells.
func (c *CSR) NNZ() int { return len(c.ColIdx) }

// RowCols returns the sorted set-column indices of row i. The slice
// aliases internal storage and must be treated as read-only.
func (c *CSR) RowCols(i int) []int {
	if i < 0 || i >= c.NRows {
		panic(fmt.Sprintf("matrix: row %d out of range [0,%d)", i, c.NRows))
	}
	return c.ColIdx[c.RowPtr[i]:c.RowPtr[i+1]]
}

// RowSum returns the number of set cells in row i.
func (c *CSR) RowSum(i int) int { return len(c.RowCols(i)) }

// ColSums returns per-column counts of set cells.
func (c *CSR) ColSums() []int {
	out := make([]int, c.NCols)
	for _, j := range c.ColIdx {
		out[j]++
	}
	return out
}

// MemoryBytes estimates the storage footprint of the CSR structure in
// bytes (8 bytes per stored int). Exposed so the benchmark harness can
// report dense-vs-sparse memory, mirroring the paper's §III-B discussion.
func (c *CSR) MemoryBytes() int {
	return 8 * (len(c.RowPtr) + len(c.ColIdx))
}

// MemoryBytesDense estimates a dense bit-packed matrix footprint for the
// same shape.
func MemoryBytesDense(rows, cols int) int {
	wordsPerRow := (cols + 63) / 64
	return 8 * rows * wordsPerRow
}
