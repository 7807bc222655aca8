package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/rbac"
	"repro/internal/replay"
)

// fullGroups is the reference for bucketIndex.groups: it splits every
// multi-role bucket afresh and sorts the result, with no cache and no
// dirty set.
func fullGroups(x *bucketIndex) [][]rbac.RoleID {
	ds, side := x.ds, x.side
	out := [][]rbac.RoleID{}
	var members []int
	for _, b := range x.buckets {
		if len(b) < 2 {
			continue
		}
		members = members[:0]
		for _, r := range b {
			if ri, _ := ds.RoleIndex(r); len(side.row(ri)) > 0 {
				members = append(members, ri)
			}
		}
		for len(members) >= 2 {
			lead := members[0]
			group := []rbac.RoleID{ds.Role(lead)}
			rest := members[:0]
			for _, ri := range members[1:] {
				if slices.Equal(side.row(ri), side.row(lead)) {
					group = append(group, ds.Role(ri))
				} else {
					rest = append(rest, ri)
				}
			}
			if len(group) >= 2 {
				out = append(out, group)
			}
			members = rest
		}
	}
	SortGroups(out)
	return out
}

// requireAuditMatchesFullWalk encodes the session's audit and the
// audit a full walk would give, with stats from the dataset's own
// count, and requires the bytes to match.
func requireAuditMatchesFullWalk(t *testing.T, s *Session, label string) {
	t.Helper()
	got, err := json.Marshal(s.Audit())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(Audit{
		Base:                 s.base,
		Events:               s.applied,
		Stats:                s.ds.Stats(),
		SameUserGroups:       fullGroups(&s.users),
		SamePermissionGroups: fullGroups(&s.perms),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: audit differs from the full walk\ngot:  %s\nwant: %s", label, got, want)
	}
}

// removals picks an event gen.Drift never emits — a role removal, a
// permission removal, or a permission or user revoke — against the
// session's current dataset.
func removals(rng *rand.Rand, ds *rbac.Dataset) replay.Event {
	role := ds.Role(rng.Intn(ds.NumRoles()))
	ri, _ := ds.RoleIndex(role)
	switch rng.Intn(4) {
	case 0:
		return replay.Event{Op: replay.OpRemoveRole, Role: role}
	case 1:
		return replay.Event{Op: replay.OpRemovePermission, Permission: ds.Permission(rng.Intn(ds.NumPermissions()))}
	case 2:
		if row := ds.RolePermissionRow(ri); len(row) > 0 {
			return replay.Event{Op: replay.OpRevokePermission, Role: role, Permission: ds.Permission(int(row[rng.Intn(len(row))]))}
		}
	}
	if row := ds.RoleUserRow(ri); len(row) > 0 {
		return replay.Event{Op: replay.OpRevokeUser, Role: role, User: ds.User(int(row[rng.Intn(len(row))]))}
	}
	return replay.Event{Op: replay.OpRemoveRole, Role: role}
}

// TestAuditMatchesFullWalk holds the cached, dirty-bucket audit to the
// full walk after every event of seeded drift streams, interleaved with
// the removals and revokes drift does not generate. Drift events that
// an earlier removal made inapplicable are refused and must leave the
// session as it was. The stats must equal the dataset's own count.
func TestAuditMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		base := smallBase(t)
		events, err := gen.Drift(base, gen.DriftParams{Events: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		s := New("t", "d", base)
		requireAuditMatchesFullWalk(t, s, fmt.Sprintf("seed %d at base", seed))
		for i, e := range events {
			batch := []replay.Event{e}
			if i%5 == 4 && s.ds.NumRoles() > 0 {
				batch = append(batch, removals(rng, s.ds))
			}
			for _, e := range batch {
				_, _ = s.Apply([]replay.Event{e})
				requireAuditMatchesFullWalk(t, s, fmt.Sprintf("seed %d event %d (%s)", seed, i, e.Op))
			}
		}
	}
}

// TestAuditMatchesFullWalkAfterCollision files unequal roles into one
// bucket after the first audit, as a hash collision would, so the
// dirty-bucket path splits a bucket holding distinct sets, and keeps
// matching the full walk as drift moves roles in and out of it.
func TestAuditMatchesFullWalkAfterCollision(t *testing.T) {
	base := smallBase(t)
	events, err := gen.Drift(base, gen.DriftParams{Events: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := New("t", "d", base)
	requireAuditMatchesFullWalk(t, s, "at base")
	h := s.users.hash["r00"]
	for _, r := range []rbac.RoleID{"r01", "r02", "r03"} {
		s.users.remove(r)
		s.users.add(r, h)
	}
	if n := len(s.users.buckets[h]); n < 4 {
		t.Fatalf("forced bucket holds %d roles, want at least 4", n)
	}
	requireAuditMatchesFullWalk(t, s, "after the forced collision")
	for i, e := range events {
		if _, err := s.Apply([]replay.Event{e}); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		requireAuditMatchesFullWalk(t, s, fmt.Sprintf("event %d (%s)", i, e.Op))
	}
}

// TestAuditsReadWhileApplying encodes earlier audits on other
// goroutines while events keep applying: under -race this catches any
// write to a group or listing once it was returned, and without it an
// audit whose encoding changes after it was returned.
func TestAuditsReadWhileApplying(t *testing.T) {
	base := smallBase(t)
	events, err := gen.Drift(base, gen.DriftParams{Events: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := New("t", "d", base)
	type encoded struct {
		audit Audit
		first []byte
	}
	audits := make(chan Audit)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen []encoded
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range audits {
				b, err := json.Marshal(a)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seen = append(seen, encoded{a, b})
				earlier := seen[len(seen)/2]
				mu.Unlock()
				if _, err := json.Marshal(earlier.audit); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i, e := range events {
		if _, err := s.Apply([]replay.Event{e}); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		audits <- s.Audit()
	}
	close(audits)
	wg.Wait()
	for _, e := range seen {
		again, err := json.Marshal(e.audit)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, e.first) {
			t.Fatalf("an audit changed after it was returned:\nthen: %s\nnow:  %s", e.first, again)
		}
	}
}

// TestApplyAuditAllocs guards the O(delta) audit: one assign-user event
// plus an audit at paper/10 allocates a handful of objects, not one per
// bucket or group.
func TestApplyAuditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	ds, _, err := gen.Org(gen.DefaultOrgParams().Scaled(10))
	if err != nil {
		t.Fatal(err)
	}
	s := New("t", "d", ds)
	s.Audit()
	users, roles := ds.Users(), ds.Roles()
	batch := make([]replay.Event, 1)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		batch[0] = replay.Event{Op: replay.OpAssignUser, Role: roles[i%len(roles)], User: users[i%len(users)]}
		i++
		if _, err := s.Apply(batch); err != nil {
			t.Fatal(err)
		}
		s.Audit()
	})
	t.Logf("%.0f allocations per event and audit", allocs)
	if allocs > 8 {
		t.Fatalf("one assign-user Apply and Audit: %.0f allocations, want at most 8", allocs)
	}
}
