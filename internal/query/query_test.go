package query

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rbac"
)

func fig1Index(t *testing.T) *Index {
	t.Helper()
	return NewIndex(rbac.Figure1())
}

func TestRolesOf(t *testing.T) {
	x := fig1Index(t)
	roles, err := x.RolesOf("U01")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(roles, []rbac.RoleID{"R02", "R04"}) {
		t.Fatalf("RolesOf(U01) = %v", roles)
	}
	if _, err := x.RolesOf("ghost"); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestRolesGranting(t *testing.T) {
	x := fig1Index(t)
	roles, err := x.RolesGranting("P05")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(roles, []rbac.RoleID{"R04", "R05"}) {
		t.Fatalf("RolesGranting(P05) = %v", roles)
	}
	// Standalone permission has no granting roles.
	roles, err = x.RolesGranting("P01")
	if err != nil {
		t.Fatal(err)
	}
	if len(roles) != 0 {
		t.Fatalf("RolesGranting(P01) = %v", roles)
	}
	if _, err := x.RolesGranting("ghost"); err == nil {
		t.Fatal("unknown permission accepted")
	}
}

func TestPermissionsOf(t *testing.T) {
	x := fig1Index(t)
	perms, err := x.PermissionsOf("U01")
	if err != nil {
		t.Fatal(err)
	}
	// U01 is in R02 (no perms) and R04 (P05, P06).
	if !reflect.DeepEqual(perms, []rbac.PermissionID{"P05", "P06"}) {
		t.Fatalf("PermissionsOf(U01) = %v", perms)
	}
	if _, err := x.PermissionsOf("ghost"); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestUsersWith(t *testing.T) {
	x := fig1Index(t)
	users, err := x.UsersWith("P05")
	if err != nil {
		t.Fatal(err)
	}
	// P05 via R04 {U01,U02} and R05 {U04}.
	if !reflect.DeepEqual(users, []rbac.UserID{"U01", "U02", "U04"}) {
		t.Fatalf("UsersWith(P05) = %v", users)
	}
	if _, err := x.UsersWith("ghost"); err == nil {
		t.Fatal("unknown permission accepted")
	}
}

func TestWhyAndHasAccess(t *testing.T) {
	x := fig1Index(t)
	grants, err := x.Why("U01", "P05")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grants, []Grant{{Via: "R04"}}) {
		t.Fatalf("Why = %v", grants)
	}
	ok, err := x.HasAccess("U01", "P05")
	if err != nil || !ok {
		t.Fatalf("HasAccess = (%v, %v)", ok, err)
	}
	ok, err = x.HasAccess("U03", "P05")
	if err != nil || ok {
		t.Fatalf("HasAccess(U03, P05) = (%v, %v)", ok, err)
	}
	if _, err := x.Why("ghost", "P05"); err == nil {
		t.Fatal("unknown user accepted")
	}
	if _, err := x.Why("U01", "ghost"); err == nil {
		t.Fatal("unknown permission accepted")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	d := rbac.Figure1()
	x := NewIndex(d)
	if err := d.RevokeUser("R02", "U01"); err != nil {
		t.Fatal(err)
	}
	roles, err := x.RolesOf("U01")
	if err != nil {
		t.Fatal(err)
	}
	if len(roles) != 2 {
		t.Fatal("index observed later mutation")
	}
}

func TestPropertyQueryConsistency(t *testing.T) {
	// For random datasets: UsersWith(p) contains u iff PermissionsOf(u)
	// contains p iff HasAccess(u, p), and Why is non-empty exactly then.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := rbac.NewDataset()
		nu, np, nr := 2+r.Intn(5), 2+r.Intn(5), 2+r.Intn(6)
		for i := 0; i < nu; i++ {
			_ = d.AddUser(rbac.UserID(rune('a' + i)))
		}
		for i := 0; i < np; i++ {
			_ = d.AddPermission(rbac.PermissionID(rune('A' + i)))
		}
		for i := 0; i < nr; i++ {
			role := rbac.RoleID(rune('r')) + rbac.RoleID(rune('0'+i))
			_ = d.AddRole(role)
			for u := 0; u < nu; u++ {
				if r.Intn(3) == 0 {
					_ = d.AssignUser(role, rbac.UserID(rune('a'+u)))
				}
			}
			for p := 0; p < np; p++ {
				if r.Intn(3) == 0 {
					_ = d.AssignPermission(role, rbac.PermissionID(rune('A'+p)))
				}
			}
		}
		x := NewIndex(d)
		for u := 0; u < nu; u++ {
			user := rbac.UserID(rune('a' + u))
			perms, err := x.PermissionsOf(user)
			if err != nil {
				return false
			}
			permSet := make(map[rbac.PermissionID]bool, len(perms))
			for _, p := range perms {
				permSet[p] = true
			}
			for p := 0; p < np; p++ {
				perm := rbac.PermissionID(rune('A' + p))
				has, err := x.HasAccess(user, perm)
				if err != nil {
					return false
				}
				if has != permSet[perm] {
					return false
				}
				users, err := x.UsersWith(perm)
				if err != nil {
					return false
				}
				inUsers := false
				for _, uu := range users {
					if uu == user {
						inUsers = true
					}
				}
				if inUsers != has {
					return false
				}
				grants, err := x.Why(user, perm)
				if err != nil {
					return false
				}
				if (len(grants) > 0) != has {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
