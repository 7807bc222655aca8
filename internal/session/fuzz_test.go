package session

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rbac"
	"repro/internal/replay"
)

// fuzzOps is the op alphabet FuzzSessionAudit decodes into.
var fuzzOps = []replay.Op{
	replay.OpAddUser, replay.OpRemoveUser,
	replay.OpAddPermission, replay.OpRemovePermission,
	replay.OpAddRole, replay.OpRemoveRole,
	replay.OpAssignUser, replay.OpRevokeUser,
	replay.OpAssignPermission, replay.OpRevokePermission,
}

// fuzzBase is a tiny universe with duplicates on both sides: r0 and r2
// share users, r1 and r3 share users, r0 and r1 share permissions, r3
// grants none. u4, p4 and r4 are outside it until an event adds them.
func fuzzBase(t testing.TB) *rbac.Dataset {
	t.Helper()
	d := rbac.NewDataset()
	for i := 0; i < 4; i++ {
		if err := d.AddUser(rbac.UserID(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := d.AddPermission(rbac.PermissionID(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 4; r++ {
		role := rbac.RoleID(fmt.Sprintf("r%d", r))
		if err := d.AddRole(role); err != nil {
			t.Fatal(err)
		}
		for u := r % 2; u < 4; u += 2 {
			if err := d.AssignUser(role, rbac.UserID(fmt.Sprintf("u%d", u))); err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p < r/2+1 && r < 3; p++ {
			if err := d.AssignPermission(role, rbac.PermissionID(fmt.Sprintf("p%d", p))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// FuzzSessionAudit decodes fuzz bytes into events over a five-id
// universe per entity kind — adds and removes of users, permissions
// and roles (so an id is removed and re-added), plus assigns and
// revokes — and after every event requires the audit to be
// set-identical to a full engine run over the session's dataset.
// Events the dataset refuses (a duplicate add, an unknown id) are
// expected and must leave the session as it was.
func FuzzSessionAudit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 5, 3, 1, 6, 2, 7, 0, 4, 4, 6, 24})
	f.Add([]byte{5, 0, 4, 0, 6, 0, 6, 10, 8, 0, 9, 0, 1, 2, 0, 2, 6, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every event costs a full engine run; past 64 events a longer
		// input only slows the fuzzer down, the universe being tiny.
		if len(data) > 128 {
			data = data[:128]
		}
		s := New("fuzz", "d", fuzzBase(t))
		for i := 0; i+1 < len(data); i += 2 {
			arg := int(data[i+1])
			e := replay.Event{Op: fuzzOps[int(data[i])%len(fuzzOps)]}
			switch e.Op {
			case replay.OpAddUser, replay.OpRemoveUser:
				e.User = rbac.UserID(fmt.Sprintf("u%d", arg%5))
			case replay.OpAddPermission, replay.OpRemovePermission:
				e.Permission = rbac.PermissionID(fmt.Sprintf("p%d", arg%5))
			case replay.OpAddRole, replay.OpRemoveRole:
				e.Role = rbac.RoleID(fmt.Sprintf("r%d", arg%5))
			case replay.OpAssignUser, replay.OpRevokeUser:
				e.Role = rbac.RoleID(fmt.Sprintf("r%d", arg%5))
				e.User = rbac.UserID(fmt.Sprintf("u%d", arg/5%5))
			default:
				e.Role = rbac.RoleID(fmt.Sprintf("r%d", arg%5))
				e.Permission = rbac.PermissionID(fmt.Sprintf("p%d", arg/5%5))
			}
			_, _ = s.Apply([]replay.Event{e})
			requireMatchesAnalyze(t, s)
		}
	})
}

// TestCollidingBucketSplits files unequal non-empty roles into one
// bucket by hand, as a hash collision would: the audit must keep them
// apart, and still group the true duplicate sharing the bucket.
func TestCollidingBucketSplits(t *testing.T) {
	d := rbac.NewDataset()
	for _, u := range []rbac.UserID{"u1", "u2", "u3"} {
		if err := d.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	sets := map[rbac.RoleID][]rbac.UserID{
		"a": {"u1", "u2"},
		"b": {"u1", "u3"}, // same size as a, different set
		"c": {"u1", "u2"}, // a's true duplicate
		"d": {"u1"},       // a strict subset of a
	}
	for _, r := range []rbac.RoleID{"a", "b", "c", "d"} {
		if err := d.AddRole(r); err != nil {
			t.Fatal(err)
		}
		for _, u := range sets[r] {
			if err := d.AssignUser(r, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := New("t", "d", d)
	h := s.users.hash["a"]
	for _, r := range []rbac.RoleID{"b", "d"} {
		s.users.remove(r)
		s.users.add(r, h)
	}
	if n := len(s.users.buckets[h]); n != 4 {
		t.Fatalf("forced bucket holds %d roles, want 4", n)
	}
	want := [][]rbac.RoleID{{"a", "c"}}
	if got := s.Audit().SameUserGroups; !reflect.DeepEqual(got, want) {
		t.Fatalf("same-user groups = %v, want %v", got, want)
	}
	requireMatchesAnalyze(t, s)
}
