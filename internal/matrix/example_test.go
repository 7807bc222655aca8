package matrix_test

import (
	"fmt"

	"repro/internal/matrix"
)

// Example builds a small RUAM in sparse form and reads the row and
// column sums the linear detectors use.
func Example() {
	c := matrix.CSRFromLists(4, [][]int{{0, 1}, {}, {3}})

	var rowSums, zeroCols []int
	for i := 0; i < c.Rows(); i++ {
		rowSums = append(rowSums, c.RowSum(i))
	}
	for j, n := range c.ColSums() {
		if n == 0 {
			zeroCols = append(zeroCols, j)
		}
	}
	fmt.Println("row sums:", rowSums)
	fmt.Println("zero cols:", zeroCols)
	fmt.Println("nnz:", c.NNZ())
	fmt.Println("row 0 cols:", c.RowCols(0))
	// Output:
	// row sums: [2 0 1]
	// zero cols: [2]
	// nnz: 3
	// row 0 cols: [0 1]
}
