package core

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/rbac"
)

// The analysis groups each side's non-empty sparse rows: Role Diet over
// them directly, every other method over an arena packed from them. The
// tests below pin the edge cases on both lanes.

// lanes lists one method per grouping lane: Role Diet reads the rows,
// exact DBSCAN the arena.
var lanes = []Method{MethodRoleDiet, MethodDBSCAN}

func TestAnalyzeSparseMatchesDenseOnFigure1(t *testing.T) {
	ds := rbac.Figure1()
	sparse, err := Analyze(ds, Options{Method: MethodRoleDiet})
	if err != nil {
		t.Fatal(err)
	}
	arena, err := Analyze(ds, Options{Method: MethodDBSCAN})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(sparse.StandaloneUsers, arena.StandaloneUsers) ||
		!reflect.DeepEqual(sparse.StandalonePermissions, arena.StandalonePermissions) ||
		!reflect.DeepEqual(sparse.StandaloneRoles, arena.StandaloneRoles) {
		t.Fatal("class-1 findings differ between the sparse-row and arena lanes")
	}
	if !reflect.DeepEqual(sparse.RolesWithoutUsers, arena.RolesWithoutUsers) ||
		!reflect.DeepEqual(sparse.RolesWithoutPermissions, arena.RolesWithoutPermissions) {
		t.Fatal("class-2 findings differ")
	}
	if !reflect.DeepEqual(sparse.RolesWithSingleUser, arena.RolesWithSingleUser) ||
		!reflect.DeepEqual(sparse.RolesWithSinglePermission, arena.RolesWithSinglePermission) {
		t.Fatal("class-3 findings differ")
	}
	if !reflect.DeepEqual(sparse.SameUserGroups, arena.SameUserGroups) ||
		!reflect.DeepEqual(sparse.SamePermissionGroups, arena.SamePermissionGroups) {
		t.Fatal("class-4 findings differ")
	}
	if !reflect.DeepEqual(sparse.SimilarUserGroups, arena.SimilarUserGroups) ||
		!reflect.DeepEqual(sparse.SimilarPermissionGroups, arena.SimilarPermissionGroups) {
		t.Fatal("class-5 findings differ")
	}
}

func TestAnalyzeSparseSkipFlags(t *testing.T) {
	ds := rbac.Figure1()
	for _, m := range lanes {
		rep, err := Analyze(ds, Options{Method: m, SkipGroups: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.SameUserGroups != nil {
			t.Fatalf("%s: SkipGroups ignored", m)
		}
		rep, err = Analyze(ds, Options{Method: m, SkipSimilar: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.SameUserGroups == nil || rep.SimilarUserGroups != nil {
			t.Fatalf("%s: SkipSimilar handling wrong", m)
		}
	}
}

func TestAnalyzeSparseInvalidOptions(t *testing.T) {
	for _, m := range lanes {
		if _, err := Analyze(rbac.Figure1(), Options{Method: m, SimilarThreshold: -2}); err == nil {
			t.Fatalf("%s: negative threshold accepted", m)
		}
		if _, err := Analyze(rbac.Figure1(), Options{Method: m, Workers: -1}); err == nil {
			t.Fatalf("%s: negative workers accepted", m)
		}
	}
}

func TestAnalyzeSparseEmptyDataset(t *testing.T) {
	for _, m := range lanes {
		rep, err := Analyze(rbac.NewDataset(), Options{Method: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if rep.Stats.Roles != 0 || len(rep.SameUserGroups) != 0 {
			t.Fatalf("%s: report = %+v", m, rep)
		}
	}
}

// TestAnalyzeSparseStandaloneRole analyses a dataset whose only role
// has no assignments: both sides keep zero rows, which neither lane
// may turn into a group.
func TestAnalyzeSparseStandaloneRole(t *testing.T) {
	ds := rbac.NewDataset()
	if err := ds.AddRole("lonely"); err != nil {
		t.Fatal(err)
	}
	for _, m := range lanes {
		rep, err := Analyze(ds, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.StandaloneRoles, []rbac.RoleID{"lonely"}) {
			t.Fatalf("%s: standalone roles = %v", m, rep.StandaloneRoles)
		}
		if len(rep.SameUserGroups) != 0 || len(rep.SamePermissionGroups) != 0 {
			t.Fatalf("%s: empty rows grouped: %+v", m, rep)
		}
	}
}

// paperRUAM lists the RUAM from Figure 1 of the paper: 5 roles × 4
// users. R01={U01}, R02={U01,U02}, R03={}, R04={U01,U02}, R05={U04}.
var paperRUAM = [][]int32{{0}, {0, 1}, {}, {0, 1}, {3}}

// paperSides lays the paper's RUAM out as a side both ways the
// analysis does: in place and copied.
func paperSides() map[string]side {
	row := func(ri int) []int32 { return paperRUAM[ri] }
	return map[string]side{
		"in place": newSide(len(paperRUAM), 4, row, false),
		"copied":   newSide(len(paperRUAM), 4, row, true),
	}
}

// TestRowSumsPaperExample pins a side's row sums: the number of users
// of each role, R03's zero included.
func TestRowSumsPaperExample(t *testing.T) {
	for name, s := range paperSides() {
		if want := []int32{1, 2, 0, 2, 1}; !reflect.DeepEqual(s.rowSums, want) {
			t.Errorf("%s: row sums = %v, want %v", name, s.rowSums, want)
		}
	}
}

// TestKeptRowsPaperExample pins the non-empty rows a side keeps for
// grouping, with their remap to role indices: R03 is dropped.
func TestKeptRowsPaperExample(t *testing.T) {
	for name, s := range paperSides() {
		if want := [][]int32{{0}, {0, 1}, {0, 1}, {3}}; !reflect.DeepEqual(s.rows, want) {
			t.Errorf("%s: kept rows = %v, want %v", name, s.rows, want)
		}
		if want := []int32{0, 1, 3, 4}; !reflect.DeepEqual(s.remap, want) {
			t.Errorf("%s: remap = %v, want %v", name, s.remap, want)
		}
		if s.cols != 4 {
			t.Errorf("%s: cols = %d, want 4", name, s.cols)
		}
	}
}

// TestColSumsAndZeroCols pins a side's column degrees: U03 is assigned
// to no role.
func TestColSumsAndZeroCols(t *testing.T) {
	for name, s := range paperSides() {
		if want := []int32{3, 2, 0, 1}; !reflect.DeepEqual(s.colDeg, want) {
			t.Fatalf("%s: column degrees = %v, want %v", name, s.colDeg, want)
		}
		var zero []int
		for j, n := range s.colDeg {
			if n == 0 {
				zero = append(zero, j)
			}
		}
		if !reflect.DeepEqual(zero, []int{2}) {
			t.Fatalf("%s: zero columns = %v, want [2]", name, zero)
		}
	}
}

// TestColDegreesMatchDense requires both sides' row sums and column
// degrees, built in place and copied, to equal the set-bit counts of the
// dense RUAM/RPAM rows and columns on organisation datasets.
func TestColDegreesMatchDense(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := gen.DefaultOrgParams().Scaled(400)
		p.Seed = seed
		ds, _, err := gen.Org(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			cols  int
			row   func(ri int) []int32
			dense *rbac.BitMatrix
		}{
			{"RUAM", ds.NumUsers(), ds.RoleUserRow, ds.RUAM()},
			{"RPAM", ds.NumPermissions(), ds.RolePermissionRow, ds.RPAM()},
		} {
			rowSums := make([]int32, ds.NumRoles())
			colDeg := make([]int32, tc.cols)
			for ri := range rowSums {
				for _, j := range tc.dense.Row(ri).Indices() {
					rowSums[ri]++
					colDeg[j]++
				}
			}
			for _, copyRows := range []bool{false, true} {
				s := newSide(ds.NumRoles(), tc.cols, tc.row, copyRows)
				if !reflect.DeepEqual(s.rowSums, rowSums) {
					t.Errorf("seed %d, %s, copied=%v: row sums differ from the dense rows' counts", seed, tc.name, copyRows)
				}
				if !reflect.DeepEqual(s.colDeg, colDeg) {
					t.Errorf("seed %d, %s, copied=%v: column degrees differ from the dense columns' counts", seed, tc.name, copyRows)
				}
			}
		}
	}
}

// TestAnalyzeInPlaceMatchesAnalyzer requires the one-shot Analyze, which
// reads the dataset's rows in place, to report exactly what an Analyzer
// over a copied snapshot reports, for every method, on organisation
// datasets that include roles without users or permissions (class 2).
func TestAnalyzeInPlaceMatchesAnalyzer(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := gen.DefaultOrgParams().Scaled(400)
		p.Seed = seed
		ds, _, err := gen.Org(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Method{MethodRoleDiet, MethodDBSCAN, MethodHNSW, MethodDBSCANFloat64} {
			opts := Options{Method: m}
			inPlace, err := Analyze(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(inPlace.RolesWithoutUsers) == 0 || len(inPlace.RolesWithoutPermissions) == 0 {
				t.Fatalf("seed %d: no class-2 roles to drop from the kept rows", seed)
			}
			snap, err := NewAnalyzer(ds).Analyze(opts)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := reportJSON(t, inPlace), reportJSON(t, snap); g != w {
				t.Errorf("seed %d, %s: in-place report differs from the snapshot's:\n in place %s\n snapshot %s", seed, m, g, w)
			}
		}
	}
}

// newSide is a side counted into fresh arrays.
func newSide(n, cols int, row func(ri int) []int32, copyRows bool) side {
	var s side
	s.reset(n, cols, row, copyRows)
	return s
}
