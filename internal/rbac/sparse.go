package rbac

import (
	"sort"

	"repro/internal/matrix"
)

// RUAMCSR builds the Role-User Assignment Matrix in compressed sparse
// row form, without materialising the dense bit matrix. At the paper's
// organisation scale (50k roles × 90k users) the dense RUAM needs
// ~560 MB while the CSR form needs a few megabytes — the §III-B memory
// optimisation.
func (d *Dataset) RUAMCSR() *matrix.CSR {
	return buildCSR(d.roleUsers, len(d.roles), len(d.users))
}

// RPAMCSR builds the Role-Permission Assignment Matrix in CSR form.
func (d *Dataset) RPAMCSR() *matrix.CSR {
	return buildCSR(d.rolePerms, len(d.roles), len(d.perms))
}

// buildCSR lays the sets out in two passes: the first fixes RowPtr from
// the set sizes, the second writes each row straight into its ColIdx
// slice and sorts it in place, so the matrix costs a constant number of
// allocations at any size.
func buildCSR(sets []map[int]struct{}, rows, cols int) *matrix.CSR {
	c := matrix.NewCSR(rows, cols)
	for ri, s := range sets {
		c.RowPtr[ri+1] = c.RowPtr[ri] + len(s)
	}
	c.ColIdx = make([]int, c.RowPtr[rows])
	for ri, s := range sets {
		row := c.ColIdx[c.RowPtr[ri]:c.RowPtr[ri]:c.RowPtr[ri+1]]
		for j := range s {
			row = append(row, j)
		}
		sort.Ints(row)
	}
	return c
}
