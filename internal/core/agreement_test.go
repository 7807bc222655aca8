package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rbac"
)

// canonicalIDs sorts a copy of an ID-ish slice for order-insensitive
// comparison (the sparse-row and arena lanes happen to emit in the same
// role-index order today, but that is an implementation detail).
func canonicalIDs[T ~string](ids []T) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	sort.Strings(out)
	return out
}

// canonicalGroups renders role groups in canonical form: members
// sorted, groups sorted by their member list.
func canonicalGroups(groups []core.RoleGroup) []string {
	out := make([]string, len(groups))
	for i, g := range groups {
		members := canonicalIDs(g.Roles)
		out[i] = fmt.Sprint(members)
	}
	sort.Strings(out)
	return out
}

func equalStrings(t *testing.T, field string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: sparse has %d entries, arena %d\n  sparse: %v\n  arena:  %v", field, len(a), len(b), a, b)
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s[%d]: sparse %q != arena %q", field, i, a[i], b[i])
			return
		}
	}
}

// compareReports asserts the two grouping lanes agree on every
// detected inefficiency, class by class.
func compareReports(t *testing.T, sparse, arena *core.Report) {
	t.Helper()
	if sparse.Stats != arena.Stats {
		t.Errorf("stats differ: sparse %+v arena %+v", sparse.Stats, arena.Stats)
	}
	equalStrings(t, "standaloneUsers", canonicalIDs(sparse.StandaloneUsers), canonicalIDs(arena.StandaloneUsers))
	equalStrings(t, "standalonePermissions", canonicalIDs(sparse.StandalonePermissions), canonicalIDs(arena.StandalonePermissions))
	equalStrings(t, "standaloneRoles", canonicalIDs(sparse.StandaloneRoles), canonicalIDs(arena.StandaloneRoles))
	equalStrings(t, "rolesWithoutUsers", canonicalIDs(sparse.RolesWithoutUsers), canonicalIDs(arena.RolesWithoutUsers))
	equalStrings(t, "rolesWithoutPermissions", canonicalIDs(sparse.RolesWithoutPermissions), canonicalIDs(arena.RolesWithoutPermissions))
	equalStrings(t, "rolesWithSingleUser", canonicalIDs(sparse.RolesWithSingleUser), canonicalIDs(arena.RolesWithSingleUser))
	equalStrings(t, "rolesWithSinglePermission", canonicalIDs(sparse.RolesWithSinglePermission), canonicalIDs(arena.RolesWithSinglePermission))
	equalStrings(t, "sameUserGroups", canonicalGroups(sparse.SameUserGroups), canonicalGroups(arena.SameUserGroups))
	equalStrings(t, "samePermissionGroups", canonicalGroups(sparse.SamePermissionGroups), canonicalGroups(arena.SamePermissionGroups))
	equalStrings(t, "similarUserGroups", canonicalGroups(sparse.SimilarUserGroups), canonicalGroups(arena.SimilarUserGroups))
	equalStrings(t, "similarPermissionGroups", canonicalGroups(sparse.SimilarPermissionGroups), canonicalGroups(arena.SimilarPermissionGroups))
}

// compareLanes analyses ds with Role Diet, which groups over the sparse
// rows, and with exact DBSCAN, which groups over the arena packed
// from it, at one and four workers, and requires identical reports.
func compareLanes(t *testing.T, ds *rbac.Dataset, threshold int) {
	t.Helper()
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sparse, err := core.Analyze(ds, core.Options{Method: core.MethodRoleDiet, SimilarThreshold: threshold, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			arena, err := core.Analyze(ds, core.Options{Method: core.MethodDBSCAN, SimilarThreshold: threshold, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, sparse, arena)
		})
	}
}

// TestAnalyzeSparseAgreementOrg runs the sparse-row lane (Role Diet) against
// the arena lane (exact DBSCAN) over randomized organisation-scale
// datasets (scaled-down §IV-B generator with different seeds) and
// requires identical reports across all five inefficiency classes.
func TestAnalyzeSparseAgreementOrg(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			params := gen.DefaultOrgParams().Scaled(200)
			params.Seed = seed
			ds, _, err := gen.Org(params)
			if err != nil {
				t.Fatal(err)
			}
			compareLanes(t, ds, 1)
		})
	}
}

// TestAnalyzeSparseAgreementRandom repeats the comparison on fully
// random assignment graphs with no planted structure — every edge
// independent — including higher similarity thresholds, where Role
// Diet's norm-bucket logic and DBSCAN's region queries must still agree.
func TestAnalyzeSparseAgreementRandom(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		threshold int
	}{
		{seed: 7, threshold: 1},
		{seed: 8, threshold: 2},
		{seed: 9, threshold: 3},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d,k=%d", tc.seed, tc.threshold), func(t *testing.T) {
			compareLanes(t, randomDataset(tc.seed, 120, 80, 60), tc.threshold)
		})
	}
}

// randomDataset wires roles to users and permissions with independent
// sparse coin flips, deliberately leaving some roles empty on one or
// both sides so the class-1/2 paths are exercised too.
func randomDataset(seed int64, roles, users, perms int) *rbac.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := rbac.NewDataset()
	for u := 0; u < users; u++ {
		ds.EnsureUser(rbac.UserID(fmt.Sprintf("u%03d", u)))
	}
	for p := 0; p < perms; p++ {
		ds.EnsurePermission(rbac.PermissionID(fmt.Sprintf("p%03d", p)))
	}
	for r := 0; r < roles; r++ {
		role := rbac.RoleID(fmt.Sprintf("r%03d", r))
		ds.EnsureRole(role)
		// ~10% of roles stay empty on each side independently.
		if rng.Float64() >= 0.1 {
			for u := 0; u < users; u++ {
				if rng.Float64() < 0.04 {
					ds.AssignUser(role, rbac.UserID(fmt.Sprintf("u%03d", u)))
				}
			}
		}
		if rng.Float64() >= 0.1 {
			for p := 0; p < perms; p++ {
				if rng.Float64() < 0.04 {
					ds.AssignPermission(role, rbac.PermissionID(fmt.Sprintf("p%03d", p)))
				}
			}
		}
	}
	return ds
}
