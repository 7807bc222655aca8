package rbac

import "repro/internal/matrix"

// RUAMCSR builds the Role-User Assignment Matrix in compressed sparse
// row form, without materialising the dense bit matrix. At the paper's
// organisation scale (50k roles × 90k users) the dense RUAM needs
// ~560 MB while the CSR form needs a few megabytes — the §III-B memory
// optimisation.
func (d *Dataset) RUAMCSR() *matrix.CSR {
	return buildCSR(d.roleUsers, len(d.users))
}

// RPAMCSR builds the Role-Permission Assignment Matrix in CSR form.
func (d *Dataset) RPAMCSR() *matrix.CSR {
	return buildCSR(d.rolePerms, len(d.perms))
}

// buildCSR concatenates the rows, already sorted, into one ColIdx, so
// the matrix costs a constant number of allocations at any size.
func buildCSR(rows [][]int32, cols int) *matrix.CSR {
	c := matrix.NewCSR(len(rows), cols)
	for ri, row := range rows {
		c.RowPtr[ri+1] = c.RowPtr[ri] + len(row)
	}
	c.ColIdx = make([]int, 0, c.RowPtr[len(rows)])
	for _, row := range rows {
		for _, j := range row {
			c.ColIdx = append(c.ColIdx, int(j))
		}
	}
	return c
}
