// Package matrix implements the boolean assignment matrices at the heart
// of the paper's framework: the Role-User Assignment Matrix (RUAM) and
// Role-Permission Assignment Matrix (RPAM).
//
// Instead of the full (r+u+p)² adjacency matrix of the tripartite graph,
// the paper stores the two r×u and r×p sub-matrices (Figure 1, Steps 2-3),
// needing r*(u+p) cells. The analysis runs on the CSR sparse form, as the
// paper notes sparse representations can further cut memory at some
// conversion cost. BitMatrix, a dense matrix of bit-vector rows, is what
// rbac.Dataset.RUAM/RPAM return for the benchmark module's replay.
package matrix

import (
	"fmt"

	"repro/internal/bitvec"
)

// BitMatrix is a dense boolean matrix with bit-packed rows. Row i is a
// bitvec.Vector of length Cols; for an assignment matrix, cell (i, j) is
// set iff role i is assigned user/permission j.
type BitMatrix struct {
	rows []*bitvec.Vector
}

// NewBitMatrix returns an all-zero matrix with the given shape.
func NewBitMatrix(rows, cols int) *BitMatrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative shape %dx%d", rows, cols))
	}
	m := &BitMatrix{rows: make([]*bitvec.Vector, rows)}
	for i := range m.rows {
		m.rows[i] = bitvec.New(cols)
	}
	return m
}

// checkRow panics if i is out of range.
func (m *BitMatrix) checkRow(i int) {
	if i < 0 || i >= len(m.rows) {
		panic(fmt.Sprintf("matrix: row %d out of range [0,%d)", i, len(m.rows)))
	}
}

// Set sets cell (i, j) to 1.
func (m *BitMatrix) Set(i, j int) {
	m.checkRow(i)
	m.rows[i].Set(j)
}

// Row returns row i. The returned vector aliases the matrix storage;
// callers that need an independent copy must Clone it.
func (m *BitMatrix) Row(i int) *bitvec.Vector {
	m.checkRow(i)
	return m.rows[i]
}
