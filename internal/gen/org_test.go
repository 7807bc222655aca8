package gen

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// smallOrg is the full paper-scale configuration shrunk 100x so tests
// run in milliseconds while keeping every planted structure.
func smallOrg(t *testing.T) (OrgParams, *core.Report, *OrgGroundTruth) {
	t.Helper()
	p := DefaultOrgParams().Scaled(100)
	ds, gt, err := Org(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(ds, core.Options{SimilarThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p, rep, gt
}

func TestOrgValidate(t *testing.T) {
	bad := DefaultOrgParams()
	bad.SameUserGroupRoles = 7 // odd
	if _, _, err := Org(bad); err == nil {
		t.Error("odd pair count accepted")
	}
	bad = DefaultOrgParams()
	bad.StandaloneUsers = bad.Users + 1
	if _, _, err := Org(bad); err == nil {
		t.Error("standalone > total users accepted")
	}
	bad = DefaultOrgParams()
	bad.Roles = 100 // far too few for the category counts
	if _, _, err := Org(bad); err == nil {
		t.Error("oversubscribed roles accepted")
	}
	bad = DefaultOrgParams()
	bad.Users = -1
	if _, _, err := Org(bad); err == nil {
		t.Error("negative users accepted")
	}
}

func TestOrgShape(t *testing.T) {
	p := DefaultOrgParams().Scaled(100)
	ds, _, err := Org(p)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Stats()
	if s.Users != p.Users || s.Roles != p.Roles || s.Permissions != p.Permissions {
		t.Fatalf("stats %+v vs params %+v", s, p)
	}
	if s.UserAssignments == 0 || s.PermissionAssignments == 0 {
		t.Fatal("no assignments generated")
	}
}

func TestOrgGroundTruthLinearClasses(t *testing.T) {
	_, rep, gt := smallOrg(t)
	if got := len(rep.StandaloneUsers); got != gt.StandaloneUsers {
		t.Errorf("standalone users detected %d, planted %d", got, gt.StandaloneUsers)
	}
	if got := len(rep.StandalonePermissions); got != gt.StandalonePermissions {
		t.Errorf("standalone permissions detected %d, planted %d", got, gt.StandalonePermissions)
	}
	if got := len(rep.StandaloneRoles); got != gt.StandaloneRoles {
		t.Errorf("standalone roles detected %d, planted %d", got, gt.StandaloneRoles)
	}
	if got := len(rep.RolesWithoutUsers); got != gt.RolesWithoutUsers {
		t.Errorf("roles without users detected %d, planted %d", got, gt.RolesWithoutUsers)
	}
	if got := len(rep.RolesWithoutPermissions); got != gt.RolesWithoutPermissions {
		t.Errorf("roles without permissions detected %d, planted %d", got, gt.RolesWithoutPermissions)
	}
	if got := len(rep.RolesWithSingleUser); got != gt.SingleUserRoles {
		t.Errorf("single-user roles detected %d, planted %d", got, gt.SingleUserRoles)
	}
	if got := len(rep.RolesWithSinglePermission); got != gt.SinglePermissionRoles {
		t.Errorf("single-permission roles detected %d, planted %d", got, gt.SinglePermissionRoles)
	}
}

func TestOrgGroundTruthGroups(t *testing.T) {
	_, rep, gt := smallOrg(t)

	same := core.StatsOf(rep.SameUserGroups)
	if same.Groups != gt.SameUserGroups || same.RolesInGroups != gt.SameUserGroupRoles {
		t.Errorf("same-user groups %d/%d roles, planted %d/%d",
			same.Groups, same.RolesInGroups, gt.SameUserGroups, gt.SameUserGroupRoles)
	}
	samep := core.StatsOf(rep.SamePermissionGroups)
	if samep.Groups != gt.SamePermissionGroups || samep.RolesInGroups != gt.SamePermissionGroupRoles {
		t.Errorf("same-permission groups %d/%d roles, planted %d/%d",
			samep.Groups, samep.RolesInGroups, gt.SamePermissionGroups, gt.SamePermissionGroupRoles)
	}

	// At threshold 1 the similar detector also co-groups the exact
	// pairs, so detected = planted similar + planted same.
	sim := core.StatsOf(rep.SimilarUserGroups)
	wantRoles := gt.SimilarUserGroupRoles + gt.SameUserGroupRoles
	wantGroups := gt.SimilarUserGroups + gt.SameUserGroups
	if sim.Groups != wantGroups || sim.RolesInGroups != wantRoles {
		t.Errorf("similar-user groups %d/%d roles, want %d/%d",
			sim.Groups, sim.RolesInGroups, wantGroups, wantRoles)
	}
	simp := core.StatsOf(rep.SimilarPermissionGroups)
	wantRoles = gt.SimilarPermissionGroupRoles + gt.SamePermissionGroupRoles
	wantGroups = gt.SimilarPermissionGroups + gt.SamePermissionGroups
	if simp.Groups != wantGroups || simp.RolesInGroups != wantRoles {
		t.Errorf("similar-permission groups %d/%d roles, want %d/%d",
			simp.Groups, simp.RolesInGroups, wantGroups, wantRoles)
	}
}

func TestOrgDeterministic(t *testing.T) {
	p := DefaultOrgParams().Scaled(200)
	a, _, err := Org(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Org(p)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("org generation not deterministic")
	}
}

func TestOrgScaled(t *testing.T) {
	p := DefaultOrgParams().Scaled(1000)
	if p.SameUserGroupRoles%2 != 0 || p.SimilarPermissionGroupRoles%2 != 0 {
		t.Fatalf("scaled pair counts not even: %+v", p)
	}
	if p.Roles == 0 || p.Users == 0 {
		t.Fatalf("scaled to zero: %+v", p)
	}
	if got := DefaultOrgParams().Scaled(1); got != DefaultOrgParams() {
		t.Fatal("Scaled(1) changed params")
	}
}

func TestOrgTenthScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10x-scale org generation in -short mode")
	}
	p := DefaultOrgParams().Scaled(10)
	ds, gt, err := Org(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(ds, core.Options{SimilarThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RolesWithSingleUser) != gt.SingleUserRoles {
		t.Errorf("single-user roles %d, planted %d",
			len(rep.RolesWithSingleUser), gt.SingleUserRoles)
	}
	same := core.StatsOf(rep.SameUserGroups)
	if same.RolesInGroups != gt.SameUserGroupRoles {
		t.Errorf("same-user roles %d, planted %d", same.RolesInGroups, gt.SameUserGroupRoles)
	}
}

func TestOrgValidateMoreCases(t *testing.T) {
	// Standalone permissions exceeding the pool.
	bad := DefaultOrgParams()
	bad.StandalonePermissions = bad.Permissions + 1
	if err := bad.Validate(); err == nil {
		t.Error("standalone > total permissions accepted")
	}
	// User-side category oversubscription alone.
	bad = DefaultOrgParams().Scaled(100)
	bad.SameUserGroupRoles = bad.Roles * 2
	if err := bad.Validate(); err == nil {
		t.Error("user-side oversubscription accepted")
	}
	// No background role left on the user side.
	bad = DefaultOrgParams().Scaled(100)
	bad.SingleUserRoles = bad.Roles - bad.RolesWithoutUsers -
		bad.SameUserGroupRoles - bad.SimilarUserGroupRoles
	if err := bad.Validate(); err == nil {
		t.Error("zero user-side background accepted")
	}
	// Permission-side block overflow past the role count.
	bad = DefaultOrgParams().Scaled(100)
	bad.SinglePermissionRoles = bad.Roles - bad.RolesWithoutUsers
	if err := bad.Validate(); err == nil {
		t.Error("perm-side overflow accepted")
	}
	// Shared user pool too small for the fixed windows.
	tiny := DefaultOrgParams().Scaled(100)
	tiny.Users = tiny.StandaloneUsers + 10
	if _, _, err := Org(tiny); err == nil {
		t.Error("exhausted user line accepted")
	}
}
