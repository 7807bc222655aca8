package matrix_test

import (
	"fmt"

	"repro/internal/matrix"
)

// Example builds a small RUAM, reads the row/column sums the linear
// detectors use, and converts to the sparse form.
func Example() {
	m := matrix.NewBitMatrix(3, 4)
	m.Set(0, 0)
	m.Set(0, 1)
	m.Set(2, 3)

	fmt.Println("row sums:", m.RowSums())
	fmt.Println("zero cols:", m.ZeroCols())

	c := matrix.CSRFromDense(m)
	fmt.Println("nnz:", c.NNZ())
	fmt.Println("row 0 cols:", c.RowCols(0))
	// Output:
	// row sums: [2 0 1]
	// zero cols: [2]
	// nnz: 3
	// row 0 cols: [0 1]
}
