package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/rbac"
)

// reportJSON encodes a report without its timings.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	r := *rep
	r.LinearScanDuration, r.SameGroupsDuration, r.SimilarGroupDuration = 0, 0, 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAnalyzerSnapshotUnchangedByMutation mutates every part of a
// dataset after NewAnalyzer — entities, assignments on both sides,
// role removal — and requires the report to match the one for an
// untouched copy. NewAnalyzer copies IDs, counts and arenas eagerly,
// so nothing the detectors read aliases the dataset.
func TestAnalyzerSnapshotUnchangedByMutation(t *testing.T) {
	p := gen.DefaultOrgParams().Scaled(400)
	p.Seed = 3
	ds, _, err := gen.Org(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodRoleDiet, MethodDBSCANFloat64} {
		want, err := Analyze(ds.Clone(), Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		d := ds.Clone()
		a := NewAnalyzer(d)

		roles, users, perms := d.Roles(), d.Users(), d.Permissions()
		for i, r := range roles {
			switch i % 4 {
			case 0:
				_ = d.AssignUser(r, users[i%len(users)])
			case 1:
				if us, _ := d.RoleUsers(r); len(us) > 0 {
					_ = d.RevokeUser(r, us[0])
				}
			case 2:
				_ = d.AssignPermission(r, perms[i%len(perms)])
			case 3:
				if ps, _ := d.RolePermissions(r); len(ps) > 0 {
					_ = d.RevokePermission(r, ps[0])
				}
			}
		}
		for i := 0; i < 5; i++ {
			_ = d.AddUser(rbac.UserID(fmt.Sprintf("late-u%d", i)))
			_ = d.AddPermission(rbac.PermissionID(fmt.Sprintf("late-p%d", i)))
			_ = d.AddRole(rbac.RoleID(fmt.Sprintf("late-r%d", i)))
		}
		if err := d.RemoveRole(roles[0]); err != nil {
			t.Fatal(err)
		}

		got, err := a.Analyze(Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := reportJSON(t, got), reportJSON(t, want); g != w {
			t.Errorf("%s: analyzer observed mutations made after NewAnalyzer:\n got %s\nwant %s", m, g, w)
		}
	}
}

// TestNewAnalyzerAllocsIndependentOfRoles pins that NewAnalyzer packs
// each side straight into one arena: its allocation count is a fixed
// number of slices, not one or more per role, so a dataset with four
// times the roles costs no more allocations.
func TestNewAnalyzerAllocsIndependentOfRoles(t *testing.T) {
	allocs := func(div int) float64 {
		p := gen.DefaultOrgParams().Scaled(div)
		p.Seed = 1
		ds, _, err := gen.Org(p)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() { NewAnalyzer(ds) })
	}
	small, large := allocs(80), allocs(20)
	t.Logf("NewAnalyzer allocations: %.0f at paper/80, %.0f at paper/20", small, large)
	// The counter is process-wide, so a stray runtime allocation can
	// land in either measurement; two allocations of slack absorb it.
	// The pre-arena snapshot allocated two vectors per role.
	if large > small+2 {
		t.Fatalf("NewAnalyzer allocations grow with roles: %.0f at paper/80, %.0f at paper/20", small, large)
	}
}
