package rbac

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestCSRMatchesDenseMatrices requires the dataset's compressed sparse
// rows (RoleUserRow/RolePermissionRow) to list exactly the set bits of
// the same row of the dense RUAM/RPAM, strictly ascending, on Figure 1
// and on seeded random datasets that include roles empty on one or both
// sides.
func TestCSRMatchesDenseMatrices(t *testing.T) {
	checkRowsMatchDense(t, "figure1", figure1Dataset(t))
	for _, seed := range []int64{1, 2, 3} {
		checkRowsMatchDense(t, fmt.Sprintf("random-seed=%d", seed), randomRowsDataset(t, seed))
	}
}

// TestPropertyRowsMatchDense builds 60 datasets of random shape and
// density from the same cells both ways: each sparse row must list
// exactly the dense row's set bits.
func TestPropertyRowsMatchDense(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		checkRowsMatchDense(t, fmt.Sprintf("random-seed=%d", seed), randomRowsDataset(t, seed))
	}
}

// checkRowsMatchDense compares every row of both sides of d with the
// dense matrices' set bits and checks that each row strictly ascends.
func checkRowsMatchDense(t *testing.T, name string, d *Dataset) {
	t.Helper()
	for _, tc := range []struct {
		side  string
		cols  int
		row   func(ri int) []int32
		dense *BitMatrix
	}{
		{"RUAM", d.NumUsers(), d.RoleUserRow, d.RUAM()},
		{"RPAM", d.NumPermissions(), d.RolePermissionRow, d.RPAM()},
	} {
		for ri := 0; ri < d.NumRoles(); ri++ {
			row, bits := tc.row(ri), tc.dense.Row(ri)
			if bits.Len() != tc.cols {
				t.Fatalf("%s %s: dense row %d has %d bits, want %d", name, tc.side, ri, bits.Len(), tc.cols)
			}
			if got, want := ints(row), bits.Indices(); !slices.Equal(got, want) {
				t.Errorf("%s %s: row %d = %v, dense set bits %v", name, tc.side, ri, got, want)
			}
			for k := 1; k < len(row); k++ {
				if row[k] <= row[k-1] {
					t.Errorf("%s %s: row %d not strictly ascending: %v", name, tc.side, ri, row)
				}
			}
		}
	}
}

// ints widens a row for comparison with bitvec.Vector.Indices.
func ints(row []int32) []int {
	out := make([]int, len(row))
	for k, j := range row {
		out[k] = int(j)
	}
	return out
}

// sameMatrices reports whether two datasets have the same shape and,
// role by role, the same RUAM and RPAM rows. An empty row equals a nil
// one.
func sameMatrices(a, b *Dataset) bool {
	if a.NumRoles() != b.NumRoles() || a.NumUsers() != b.NumUsers() || a.NumPermissions() != b.NumPermissions() {
		return false
	}
	for ri := 0; ri < a.NumRoles(); ri++ {
		if !slices.Equal(a.RoleUserRow(ri), b.RoleUserRow(ri)) || !slices.Equal(a.RolePermissionRow(ri), b.RolePermissionRow(ri)) {
			return false
		}
	}
	return true
}

// randomRowsDataset wires up to 40 roles to up to 130 users (often more
// than one bit-vector word) and up to 60 permissions with independent
// coin flips; about one role in five stays empty on each side.
func randomRowsDataset(t *testing.T, seed int64) *Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	roles, users, perms := 1+r.Intn(40), 1+r.Intn(130), 1+r.Intn(60)
	d := NewDataset()
	for u := 0; u < users; u++ {
		d.EnsureUser(UserID(fmt.Sprintf("u%03d", u)))
	}
	for p := 0; p < perms; p++ {
		d.EnsurePermission(PermissionID(fmt.Sprintf("p%02d", p)))
	}
	for ri := 0; ri < roles; ri++ {
		role := RoleID(fmt.Sprintf("r%02d", ri))
		d.EnsureRole(role)
		if r.Intn(5) > 0 {
			for u := 0; u < users; u++ {
				if r.Float64() < 0.1 {
					if err := d.AssignUser(role, UserID(fmt.Sprintf("u%03d", u))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if r.Intn(5) > 0 {
			for p := 0; p < perms; p++ {
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
