package consolidate

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rbac"
)

func TestSideString(t *testing.T) {
	if SideUsers.String() != "users" || SidePermissions.String() != "permissions" {
		t.Fatal("side names wrong")
	}
	if !strings.Contains(Side(7).String(), "7") {
		t.Fatal("unknown side name")
	}
}

func TestConsolidateFigure1(t *testing.T) {
	ds := rbac.Figure1()
	after, plan, err := Consolidate(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 has two class-4 groups: {R02,R04} same users and
	// {R04,R05} same permissions. R04 is claimed by the first merge, so
	// the permission group has fewer than 2 free members and is skipped
	// this round.
	if len(plan.Merges) != 1 {
		t.Fatalf("merges = %+v, want 1", plan.Merges)
	}
	if plan.RolesRemoved() != 1 {
		t.Fatalf("roles removed = %d, want 1", plan.RolesRemoved())
	}
	if after.NumRoles() != ds.NumRoles()-1 {
		t.Fatalf("roles after = %d", after.NumRoles())
	}
	// R02 survives, R04 removed, and R02 now carries R04's permissions.
	if _, ok := after.RoleIndex("R04"); ok {
		t.Fatal("R04 still present")
	}
	if !after.HasPermission("R02", "P05") || !after.HasPermission("R02", "P06") {
		t.Fatal("merged role missing folded permissions")
	}
	if err := VerifySafety(ds, after); err != nil {
		t.Fatal(err)
	}
}

func TestSecondRoundConverges(t *testing.T) {
	// After the first round removes R04, a second round can merge the
	// remaining same-permission pair if one still exists.
	ds := rbac.Figure1()
	after1, _, err := Consolidate(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	after2, plan2, err := Consolidate(after1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// R02 (with P05,P06 folded in) and R05 now share the same
	// permission set {P05,P06}? R02 has P05,P06; R05 has P05,P06. Yes.
	if plan2.RolesRemoved() != 1 {
		t.Fatalf("second round removed %d roles, want 1", plan2.RolesRemoved())
	}
	if err := VerifySafety(after1, after2); err != nil {
		t.Fatal(err)
	}
}

func TestFromReportSkipsClaimedRoles(t *testing.T) {
	rep := &core.Report{
		SameUserGroups: []core.RoleGroup{
			{Roles: []rbac.RoleID{"a", "b", "c"}},
		},
		SamePermissionGroups: []core.RoleGroup{
			{Roles: []rbac.RoleID{"b", "c"}},      // fully claimed -> skipped
			{Roles: []rbac.RoleID{"c", "d", "e"}}, // c claimed -> d,e merge
		},
	}
	plan := FromReport(rep)
	if len(plan.Merges) != 2 {
		t.Fatalf("merges = %+v", plan.Merges)
	}
	if plan.Merges[0].Keep != "a" || len(plan.Merges[0].Remove) != 2 {
		t.Fatalf("first merge = %+v", plan.Merges[0])
	}
	if plan.Merges[1].Keep != "d" || len(plan.Merges[1].Remove) != 1 ||
		plan.Merges[1].Remove[0] != "e" {
		t.Fatalf("second merge = %+v", plan.Merges[1])
	}
}

func TestApplyUnknownSide(t *testing.T) {
	ds := rbac.Figure1()
	plan := &Plan{Merges: []Merge{{Keep: "R01", Remove: []rbac.RoleID{"R02"}, Side: Side(9)}}}
	if _, err := Apply(ds, plan); err == nil {
		t.Fatal("unknown side accepted")
	}
}

func TestApplyMissingRole(t *testing.T) {
	ds := rbac.Figure1()
	plan := &Plan{Merges: []Merge{{Keep: "R01", Remove: []rbac.RoleID{"ghost"}, Side: SideUsers}}}
	if _, err := Apply(ds, plan); err == nil {
		t.Fatal("missing role accepted")
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	ds := rbac.Figure1()
	before := ds.NumRoles()
	plan := &Plan{Merges: []Merge{{Keep: "R02", Remove: []rbac.RoleID{"R04"}, Side: SideUsers}}}
	if _, err := Apply(ds, plan); err != nil {
		t.Fatal(err)
	}
	if ds.NumRoles() != before {
		t.Fatal("Apply mutated input dataset")
	}
}

func TestEmptyPlan(t *testing.T) {
	ds := rbac.Figure1()
	after, err := Apply(ds, &Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if after.NumRoles() != ds.NumRoles() {
		t.Fatal("empty plan changed roles")
	}
	if err := VerifySafety(ds, after); err != nil {
		t.Fatal(err)
	}
}

func TestVerifySafetyCatchesGrant(t *testing.T) {
	before := rbac.Figure1()
	after := before.Clone()
	if err := after.AssignPermission("R02", "P01"); err != nil {
		t.Fatal(err)
	}
	if err := VerifySafety(before, after); err == nil {
		t.Fatal("extra grant not caught")
	}
}

func TestVerifySafetyCatchesRevocation(t *testing.T) {
	before := rbac.Figure1()
	after := before.Clone()
	if err := after.RevokePermission("R01", "P02"); err != nil {
		t.Fatal(err)
	}
	if err := VerifySafety(before, after); err == nil {
		t.Fatal("revocation not caught")
	}
}

func TestConsolidateOrgRemovesPlannedShare(t *testing.T) {
	// On the miniature org the class-4 groups are planted pairs, so the
	// plan must remove exactly half the grouped roles.
	p := gen.DefaultOrgParams().Scaled(100)
	ds, gt, err := gen.Org(p)
	if err != nil {
		t.Fatal(err)
	}
	after, plan, err := Consolidate(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := gt.SameUserGroups + gt.SamePermissionGroups
	if plan.RolesRemoved() != want {
		t.Fatalf("removed %d roles, want %d", plan.RolesRemoved(), want)
	}
	if after.NumRoles() != ds.NumRoles()-want {
		t.Fatalf("after roles = %d", after.NumRoles())
	}
}

func TestPropertyConsolidationAlwaysSafe(t *testing.T) {
	// Random datasets with planted duplicate roles: consolidation must
	// always pass the safety check and never increase the role count.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r)
		after, plan, err := Consolidate(ds, core.Options{})
		if err != nil {
			return false
		}
		if after.NumRoles() != ds.NumRoles()-plan.RolesRemoved() {
			return false
		}
		return VerifySafety(ds, after) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomDataset builds a small random dataset with duplicated roles.
func randomDataset(r *rand.Rand) *rbac.Dataset {
	d := rbac.NewDataset()
	nu, np, nr := 3+r.Intn(8), 3+r.Intn(8), 4+r.Intn(10)
	for i := 0; i < nu; i++ {
		_ = d.AddUser(rbac.UserID(rune('a' + i)))
	}
	for i := 0; i < np; i++ {
		_ = d.AddPermission(rbac.PermissionID(rune('A' + i)))
	}
	for i := 0; i < nr; i++ {
		id := rbac.RoleID(fmt2(i))
		_ = d.AddRole(id)
		for u := 0; u < nu; u++ {
			if r.Intn(3) == 0 {
				_ = d.AssignUser(id, rbac.UserID(rune('a'+u)))
			}
		}
		for p := 0; p < np; p++ {
			if r.Intn(3) == 0 {
				_ = d.AssignPermission(id, rbac.PermissionID(rune('A'+p)))
			}
		}
	}
	// Duplicate a couple of roles on the user side.
	for k := 0; k < 2 && nr >= 2; k++ {
		src, dst := r.Intn(nr), r.Intn(nr)
		if src == dst {
			continue
		}
		srcUsers, _ := d.RoleUsers(rbac.RoleID(fmt2(src)))
		dstID := rbac.RoleID(fmt2(dst))
		dstUsers, _ := d.RoleUsers(dstID)
		for _, u := range dstUsers {
			_ = d.RevokeUser(dstID, u)
		}
		for _, u := range srcUsers {
			_ = d.AssignUser(dstID, u)
		}
	}
	return d
}

func fmt2(i int) string { return string(rune('r')) + string(rune('0'+i/10)) + string(rune('0'+i%10)) }

func TestApplySkipsEmptyMerges(t *testing.T) {
	ds := rbac.Figure1()
	plan := &Plan{Merges: []Merge{{Keep: "R01", Side: SideUsers}}} // no victims
	after, err := Apply(ds, plan)
	if err != nil {
		t.Fatal(err)
	}
	if after.NumRoles() != ds.NumRoles() {
		t.Fatal("empty merge changed roles")
	}
}

func TestApplyPermissionSideMergeDirect(t *testing.T) {
	ds := rbac.Figure1()
	plan := &Plan{Merges: []Merge{
		{Keep: "R04", Remove: []rbac.RoleID{"R05"}, Side: SidePermissions},
	}}
	after, err := Apply(ds, plan)
	if err != nil {
		t.Fatal(err)
	}
	// R04 gains R05's user U04 and R05 is gone.
	if !after.HasAssignment("R04", "U04") {
		t.Fatal("users not folded on permission-side merge")
	}
	if _, ok := after.RoleIndex("R05"); ok {
		t.Fatal("victim survived")
	}
	if err := VerifySafety(ds, after); err != nil {
		t.Fatal(err)
	}
}

func TestConsolidatePropagatesAnalyzeError(t *testing.T) {
	if _, _, err := Consolidate(rbac.Figure1(), core.Options{SimilarThreshold: -3}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

// TestApplyRejectsKeeperInRemove: a merge that also lists its keeper
// among the roles to remove must fail, not delete the keeper and with
// it every grant the merge meant to keep.
func TestApplyRejectsKeeperInRemove(t *testing.T) {
	ds := rbac.NewDataset()
	for _, err := range []error{
		ds.AddUser("u1"), ds.AddPermission("p1"), ds.AddRole("k"), ds.AddRole("v"),
		ds.AssignUser("k", "u1"), ds.AssignUser("v", "u1"),
		ds.AssignPermission("k", "p1"), ds.AssignPermission("v", "p1"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	plan := &Plan{Merges: []Merge{{Keep: "k", Remove: []rbac.RoleID{"v", "k"}, Side: SideUsers}}}
	if after, err := Apply(ds, plan); err == nil {
		t.Fatalf("keeper listed in Remove accepted, %d roles left", after.NumRoles())
	}
}
