package rbac

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/matrix"
)

// TestCSRMatchesDenseMatrices requires RUAMCSR/RPAMCSR to equal the CSR
// form of the dense RUAM/RPAM, field for field, with every row sorted
// ascending, on Figure 1 and on seeded random datasets that include
// roles empty on one or both sides.
func TestCSRMatchesDenseMatrices(t *testing.T) {
	datasets := map[string]*Dataset{"figure1": figure1Dataset(t)}
	for _, seed := range []int64{1, 2, 3} {
		datasets[fmt.Sprintf("random-seed=%d", seed)] = randomCSRDataset(t, seed)
	}
	for name, d := range datasets {
		for _, tc := range []struct {
			side       string
			got, dense *matrix.CSR
		}{
			{"RUAM", d.RUAMCSR(), denseCSR(d.RUAM(), d.NumRoles(), d.NumUsers())},
			{"RPAM", d.RPAMCSR(), denseCSR(d.RPAM(), d.NumRoles(), d.NumPermissions())},
		} {
			if !reflect.DeepEqual(tc.got, tc.dense) {
				t.Errorf("%s %s: CSR %+v, dense gives %+v", name, tc.side, tc.got, tc.dense)
			}
			for i := 0; i < tc.got.Rows(); i++ {
				if !slices.IsSorted(tc.got.RowCols(i)) {
					t.Errorf("%s %s: row %d not sorted: %v", name, tc.side, i, tc.got.RowCols(i))
				}
			}
		}
	}
}

// denseCSR lists the set columns of each row of a dense matrix as a CSR.
func denseCSR(m *matrix.BitMatrix, rows, cols int) *matrix.CSR {
	lists := make([][]int, rows)
	for i := range lists {
		lists[i] = m.Row(i).Indices()
	}
	return matrix.CSRFromLists(cols, lists)
}

// rowSums returns the number of set cells in each row of c.
func rowSums(c *matrix.CSR) []int {
	out := make([]int, c.Rows())
	for i := range out {
		out[i] = c.RowSum(i)
	}
	return out
}

// randomCSRDataset wires 40 roles to 70 users (more than one bit-vector
// word) and 30 permissions with independent coin flips; about one role
// in five stays empty on each side.
func randomCSRDataset(t *testing.T, seed int64) *Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	d := NewDataset()
	for u := 0; u < 70; u++ {
		d.EnsureUser(UserID(fmt.Sprintf("u%02d", u)))
	}
	for p := 0; p < 30; p++ {
		d.EnsurePermission(PermissionID(fmt.Sprintf("p%02d", p)))
	}
	for ri := 0; ri < 40; ri++ {
		role := RoleID(fmt.Sprintf("r%02d", ri))
		d.EnsureRole(role)
		if r.Intn(5) > 0 {
			for u := 0; u < 70; u++ {
				if r.Float64() < 0.1 {
					if err := d.AssignUser(role, UserID(fmt.Sprintf("u%02d", u))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if r.Intn(5) > 0 {
			for p := 0; p < 30; p++ {
				if r.Float64() < 0.15 {
					if err := d.AssignPermission(role, PermissionID(fmt.Sprintf("p%02d", p))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return d
}
