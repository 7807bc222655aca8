package core

import (
	"reflect"
	"testing"

	"repro/internal/rbac"
)

// The Analyzer's snapshot is sparse (CSR): Role Diet groups over it
// directly, every other method over an arena packed from it. The tests
// below pin the snapshot's edge cases on both lanes.

// lanes lists one method per grouping lane: Role Diet reads the CSR,
// exact DBSCAN the arena.
var lanes = []Method{MethodRoleDiet, MethodDBSCAN}

func TestAnalyzeSparseMatchesDenseOnFigure1(t *testing.T) {
	ds := rbac.Figure1()
	csr, err := Analyze(ds, Options{Method: MethodRoleDiet})
	if err != nil {
		t.Fatal(err)
	}
	arena, err := Analyze(ds, Options{Method: MethodDBSCAN})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(csr.StandaloneUsers, arena.StandaloneUsers) ||
		!reflect.DeepEqual(csr.StandalonePermissions, arena.StandalonePermissions) ||
		!reflect.DeepEqual(csr.StandaloneRoles, arena.StandaloneRoles) {
		t.Fatal("class-1 findings differ between the CSR and arena lanes")
	}
	if !reflect.DeepEqual(csr.RolesWithoutUsers, arena.RolesWithoutUsers) ||
		!reflect.DeepEqual(csr.RolesWithoutPermissions, arena.RolesWithoutPermissions) {
		t.Fatal("class-2 findings differ")
	}
	if !reflect.DeepEqual(csr.RolesWithSingleUser, arena.RolesWithSingleUser) ||
		!reflect.DeepEqual(csr.RolesWithSinglePermission, arena.RolesWithSinglePermission) {
		t.Fatal("class-3 findings differ")
	}
	if !reflect.DeepEqual(csr.SameUserGroups, arena.SameUserGroups) ||
		!reflect.DeepEqual(csr.SamePermissionGroups, arena.SamePermissionGroups) {
		t.Fatal("class-4 findings differ")
	}
	if !reflect.DeepEqual(csr.SimilarUserGroups, arena.SimilarUserGroups) ||
		!reflect.DeepEqual(csr.SimilarPermissionGroups, arena.SimilarPermissionGroups) {
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
