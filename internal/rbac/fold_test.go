package rbac

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFoldRoleUnionsRows(t *testing.T) {
	// Figure 1: R04={U01,U02}/{P05,P06}, R05={U04}/{P05,P06},
	// R01={U03}/{P02}.
	d := figure1Dataset(t)
	for _, tc := range []struct {
		from         RoleID
		users, perms bool
		added        int
	}{
		{"R05", false, true, 0}, // same permissions: nothing to add
		{"R05", true, false, 1}, // U04
		{"R01", true, true, 2},  // U03 and P02
		{"R01", true, true, 0},  // folding again adds nothing
	} {
		added, err := d.FoldRole("R04", tc.from, tc.users, tc.perms)
		if err != nil {
			t.Fatal(err)
		}
		if added != tc.added {
			t.Fatalf("fold %s (users %v, perms %v) added %d, want %d", tc.from, tc.users, tc.perms, added, tc.added)
		}
	}
	ri, _ := d.RoleIndex("R04")
	if got, want := d.RoleUserRow(ri), []int32{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("R04 users = %v, want %v", got, want)
	}
	if got, want := d.RolePermissionRow(ri), []int32{1, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("R04 permissions = %v, want %v", got, want)
	}
	if users, _ := d.RoleUsers("R05"); !slices.Equal(users, []UserID{"U04"}) {
		t.Fatalf("the folded role changed: R05 users = %v", users)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFoldRoleRejectsUnknownAndSelf(t *testing.T) {
	for _, tc := range []struct{ into, from RoleID }{
		{"ghost", "R01"}, // unknown keeper
		{"R01", "ghost"}, // unknown victim
		{"R04", "R04"},   // a role folded into itself
	} {
		d := figure1Dataset(t)
		want := d.Clone()
		if _, err := d.FoldRole(tc.into, tc.from, true, true); !errors.Is(err, ErrUnknownRole) {
			t.Fatalf("FoldRole(%s, %s) err = %v, want ErrUnknownRole", tc.into, tc.from, err)
		}
		if !sameRoles(d, want) {
			t.Fatalf("FoldRole(%s, %s) changed the dataset on error", tc.into, tc.from)
		}
	}
}

// TestPropertyFoldRoleMatchesAssign: folding each merge's victims into
// its keeper and deleting every victim with one RemoveRoles leaves the
// dataset byte for byte as the per-ID merge did — AssignUser and
// AssignPermission of each of a victim's IDs into the keeper, then
// RemoveRole of the victim — and the folds' added counts are the
// keepers' growth in edges.
func TestPropertyFoldRoleMatchesAssign(t *testing.T) {
	type merge struct {
		keep         RoleID
		remove       []RoleID
		users, perms bool
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDataset()
		nu, nr, np := 1+r.Intn(6), 2+r.Intn(10), 1+r.Intn(6)
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
		// Disjoint merges over a shuffle of the roles, as one planner
		// round makes them.
		var merges []merge
		order := r.Perm(nr)
		for len(order) >= 2 {
			n := 2 + r.Intn(len(order)-1)
			m := merge{keep: d.Role(order[0]), users: r.Intn(2) == 0, perms: r.Intn(2) == 0}
			for _, ri := range order[1:n] {
				m.remove = append(m.remove, d.Role(ri))
			}
			merges = append(merges, m)
			order = order[n:]
		}

		// The reference: the per-ID merge, one RemoveRole per victim.
		ref := d.Clone()
		for _, m := range merges {
			for _, v := range m.remove {
				if m.users {
					users, _ := ref.RoleUsers(v)
					for _, u := range users {
						if ref.AssignUser(m.keep, u) != nil {
							return false
						}
					}
				}
				if m.perms {
					perms, _ := ref.RolePermissions(v)
					for _, p := range perms {
						if ref.AssignPermission(m.keep, p) != nil {
							return false
						}
					}
				}
				if ref.RemoveRole(v) != nil {
					return false
				}
			}
		}

		got := d.Clone()
		var victims []RoleID
		delta := 0
		for _, m := range merges {
			for _, v := range m.remove {
				added, err := got.FoldRole(m.keep, v, m.users, m.perms)
				if err != nil {
					return false
				}
				ri, _ := got.RoleIndex(v)
				delta += added - got.NumRoleUsers(ri) - got.NumRolePermissions(ri)
			}
			victims = append(victims, m.remove...)
		}
		if got.RemoveRoles(victims) != nil || got.Validate() != nil {
			return false
		}
		edges := func(d *Dataset) int { return d.NumUserAssignments() + d.NumPermissionAssignments() }
		if delta != edges(got)-edges(d) {
			return false
		}
		a, err := got.MarshalJSON()
		if err != nil {
			return false
		}
		b, err := ref.MarshalJSON()
		return err == nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
