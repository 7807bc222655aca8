package rbac

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRemoveUser(t *testing.T) {
	d := figure1Dataset(t)
	if err := d.RemoveUser("U02"); err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 3 {
		t.Fatalf("NumUsers = %d", d.NumUsers())
	}
	if _, ok := d.UserIndex("U02"); ok {
		t.Fatal("removed user still indexed")
	}
	// Later users shifted; U04 now index 2 and R05 still points at it.
	i, ok := d.UserIndex("U04")
	if !ok || i != 2 {
		t.Fatalf("UserIndex(U04) = (%d, %v)", i, ok)
	}
	if !d.HasAssignment("R05", "U04") {
		t.Fatal("R05-U04 edge lost after unrelated removal")
	}
	// R02 and R04 had U01+U02; they must now hold only U01.
	us, err := d.RoleUsers("R02")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(us, []UserID{"U01"}) {
		t.Fatalf("R02 users = %v", us)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveUser("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("remove ghost user err = %v", err)
	}
}

func TestRemovePermission(t *testing.T) {
	d := figure1Dataset(t)
	if err := d.RemovePermission("P05"); err != nil {
		t.Fatal(err)
	}
	if d.NumPermissions() != 5 {
		t.Fatalf("NumPermissions = %d", d.NumPermissions())
	}
	ps, err := d.RolePermissions("R04")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps, []PermissionID{"P06"}) {
		t.Fatalf("R04 perms = %v", ps)
	}
	if !d.HasPermission("R05", "P06") {
		t.Fatal("P06 edge lost after P05 removal")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := d.RemovePermission("ghost"); !errors.Is(err, ErrUnknownPermission) {
		t.Fatalf("remove ghost perm err = %v", err)
	}
}

func TestPropertyRemovePreservesOtherEdges(t *testing.T) {
	// Removing one user never changes any other user's membership in
	// any role, and the dataset always validates.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDataset()
		nu, nr := 2+r.Intn(6), 2+r.Intn(6)
		for i := 0; i < nu; i++ {
			_ = d.AddUser(UserID(rune('a' + i)))
		}
		for i := 0; i < nr; i++ {
			_ = d.AddRole(RoleID(rune('A' + i)))
		}
		for i := 0; i < nr; i++ {
			for j := 0; j < nu; j++ {
				if r.Intn(2) == 0 {
					_ = d.AssignUser(RoleID(rune('A'+i)), UserID(rune('a'+j)))
				}
			}
		}
		victim := UserID(rune('a' + r.Intn(nu)))
		type membership struct {
			role RoleID
			user UserID
		}
		var before []membership
		for i := 0; i < nr; i++ {
			role := RoleID(rune('A' + i))
			us, _ := d.RoleUsers(role)
			for _, u := range us {
				if u != victim {
					before = append(before, membership{role, u})
				}
			}
		}
		if err := d.RemoveUser(victim); err != nil {
			return false
		}
		if err := d.Validate(); err != nil {
			return false
		}
		for _, m := range before {
			if !d.HasAssignment(m.role, m.user) {
				return false
			}
		}
		// And the victim is fully gone.
		for i := 0; i < nr; i++ {
			us, _ := d.RoleUsers(RoleID(rune('A' + i)))
			for _, u := range us {
				if u == victim {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRemoveRolesMatchesSequential(t *testing.T) {
	// Batch removal leaves the dataset exactly as the same RemoveRole
	// calls in sequence do: role order, index maps and both assignment
	// tables.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDataset()
		nu, nr, np := 1+r.Intn(6), r.Intn(10), 1+r.Intn(6)
		for i := 0; i < nu; i++ {
			_ = d.AddUser(UserID(rune('a' + i)))
		}
		for i := 0; i < np; i++ {
			_ = d.AddPermission(PermissionID(rune('p' + i)))
		}
		for i := 0; i < nr; i++ {
			role := RoleID(rune('A' + i))
			_ = d.AddRole(role)
			for j := 0; j < nu; j++ {
				if r.Intn(2) == 0 {
					_ = d.AssignUser(role, UserID(rune('a'+j)))
				}
			}
			for j := 0; j < np; j++ {
				if r.Intn(2) == 0 {
					_ = d.AssignPermission(role, PermissionID(rune('p'+j)))
				}
			}
		}
		var ids []RoleID
		for _, ri := range r.Perm(nr)[:r.Intn(nr+1)] {
			ids = append(ids, d.Role(ri))
		}

		seq, batch := d.Clone(), d.Clone()
		for _, id := range ids {
			if err := seq.RemoveRole(id); err != nil {
				return false
			}
		}
		if err := batch.RemoveRoles(ids); err != nil {
			return false
		}
		if err := batch.Validate(); err != nil {
			return false
		}
		return sameRoles(batch, seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveRolesRejectsUnknownAndRepeated(t *testing.T) {
	for _, ids := range [][]RoleID{{"R02", "ghost"}, {"R02", "R04", "R02"}} {
		d := figure1Dataset(t)
		want := d.Clone()
		if err := d.RemoveRoles(ids); !errors.Is(err, ErrUnknownRole) {
			t.Fatalf("RemoveRoles(%v) err = %v, want ErrUnknownRole", ids, err)
		}
		if !sameRoles(d, want) {
			t.Fatalf("RemoveRoles(%v) changed the dataset on error", ids)
		}
	}
}

// sameRoles compares the role side of two datasets: role order, the
// role index map and both assignment tables.
func sameRoles(a, b *Dataset) bool {
	return reflect.DeepEqual(a.Roles(), b.Roles()) &&
		reflect.DeepEqual(a.roleIdx, b.roleIdx) &&
		reflect.DeepEqual(a.roleUsers, b.roleUsers) &&
		reflect.DeepEqual(a.rolePerms, b.rolePerms)
}
