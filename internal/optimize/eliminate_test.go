package optimize

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rbac"
)

// TestGoldenPlans pins the planner's output on the generated
// organisation corpora: a speed change to any phase must reach the
// byte-identical result. The digest is sha256(json.Marshal(result)).
func TestGoldenPlans(t *testing.T) {
	cases := []struct {
		div    int
		seed   int64
		digest string
	}{
		{80, 1, "0ed5bda9d644803c86f0bab7fbb0985fd0ad5f128b63a1f67fe040b24bf911fe"},
		{80, 2, "17da8ac664a00a1bba1f14c4d13e0340fcb70ae5bfb8c81cbd8414d3d4d7d75a"},
		{80, 3, "7fbf77782fb46837024ab58d6a1d35117e08e836a36523947249615491535d35"},
		{40, 1, "0be5faae8f5d7fba166d0183bcbbe23f486b08cff6ec83fb97f1c7ef63ff9ffa"},
		{40, 2, "06982cfe68a1f9f8cf8940b658a96d87666d808556658164da69c68e07ad2244"},
		{40, 3, "2d7295a115f81dd5f9cc2cb22c9558d46cb7628d5decb686fcc336a53be9e8ca"},
		{10, 1, "91bcfb5a7fe5e7895c2777758e1f295cfd4ec4ea956df1c62231bc95175c0cea"},
	}
	// The mining pass runs after the merges; these rows pin its
	// decomposition through the plan's mine action and final dataset.
	mineCases := []struct {
		div    int
		seed   int64
		digest string
	}{
		{80, 1, "0b6978cff9b4b664ec284484b1952141eebcb0459af4a12a52b95fee3dbd52e4"},
		{80, 2, "e1158fd619492efad28ebe1d1b16cab6a9e3abaa8e25c2de41e3345f892a97ac"},
		{80, 3, "70fc705050a7db04a1672c333df649b1ee2d169bd0117a5d9998ba758a518d66"},
	}
	run := func(name string, div int, seed int64, knobs Knobs, digest string) {
		t.Run(name, func(t *testing.T) {
			if div < 40 && testing.Short() {
				t.Skip("paper/10 corpus skipped in -short mode")
			}
			p := gen.DefaultOrgParams().Scaled(div)
			p.Seed = seed
			ds, _, err := gen.Org(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(ds, knobs)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != digest {
				t.Fatalf("plan digest %s, want %s", got, digest)
			}
		})
	}
	for _, c := range cases {
		run(fmt.Sprintf("paper%d-seed%d", c.div, c.seed), c.div, c.seed, Knobs{}, c.digest)
	}
	for _, c := range mineCases {
		run(fmt.Sprintf("paper%d-seed%d-mine", c.div, c.seed), c.div, c.seed, Knobs{Mine: true}, c.digest)
	}
}

// eliminateReference is the elimination pass in its original
// brute-force form, kept as the differential oracle for the indexed
// one: each drop is removed from the dataset as it is made, and each
// class-3 grant pair is checked against every remaining role.
func eliminateReference(p *planner, rep *core.Report) error {
	drop := func(r rbac.RoleID, kind string, class int, reason string) error {
		users, err := p.cur.RoleUsers(r)
		if err != nil {
			return fmt.Errorf("optimize: dropped role %q not in dataset", r)
		}
		perms, _ := p.cur.RolePermissions(r)
		p.actions = append(p.actions, Action{
			Kind:         kind,
			Class:        class,
			Role:         r,
			RolesRemoved: 1,
			EdgesDelta:   -(len(users) + len(perms)),
			Reason:       reason,
		})
		return p.cur.RemoveRole(r)
	}
	for _, r := range rep.StandaloneRoles {
		if err := drop(r, KindDropRole, 1, "standalone role: no users and no permissions"); err != nil {
			return err
		}
	}
	for _, r := range rep.RolesWithoutUsers {
		if err := drop(r, KindDropRole, 2, "grants nothing: no users hold the role"); err != nil {
			return err
		}
	}
	for _, r := range rep.RolesWithoutPermissions {
		if err := drop(r, KindDropRole, 2, "grants nothing: the role has no permissions"); err != nil {
			return err
		}
	}

	seen := make(map[rbac.RoleID]struct{})
	var candidates []rbac.RoleID
	for _, list := range [][]rbac.RoleID{rep.RolesWithSingleUser, rep.RolesWithSinglePermission} {
		for _, r := range list {
			if _, dup := seen[r]; !dup {
				seen[r] = struct{}{}
				candidates = append(candidates, r)
			}
		}
	}
	sort.Slice(candidates, func(a, b int) bool { return candidates[a] < candidates[b] })
	for _, r := range candidates {
		if _, ok := p.cur.RoleIndex(r); !ok {
			continue
		}
		if !coveredByScan(p.cur, r) {
			continue
		}
		if err := drop(r, KindDropRedundant, 3,
			"single-assignment role: every grant is covered by another role"); err != nil {
			return err
		}
	}
	return nil
}

// coveredByScan reports whether every (user, permission) pair role r
// grants is granted by some other role, scanning all roles by id.
func coveredByScan(d *rbac.Dataset, r rbac.RoleID) bool {
	users, _ := d.RoleUsers(r)
	perms, _ := d.RolePermissions(r)
	for _, u := range users {
		for _, pm := range perms {
			covered := false
			for _, o := range d.Roles() {
				if o != r && d.HasAssignment(o, u) && d.HasPermission(o, pm) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
	}
	return true
}

// singleAssignmentDataset draws a small dataset dense in class-3
// candidates: single-user and single-permission roles, copies of
// earlier roles (mutually covering pairs), a few wide covering roles,
// and some class-1/2 roles. Role ids are shuffled against insertion
// order so the id-ordered candidate walk differs from index order.
func singleAssignmentDataset(r *rand.Rand) *rbac.Dataset {
	d := rbac.NewDataset()
	nu, np, nr := 1+r.Intn(5), 1+r.Intn(5), 2+r.Intn(12)
	for i := 0; i < nu; i++ {
		d.EnsureUser(rbac.UserID(fmt.Sprintf("u%d", i)))
	}
	for i := 0; i < np; i++ {
		d.EnsurePermission(rbac.PermissionID(fmt.Sprintf("p%d", i)))
	}
	some := func(n int) []int {
		out := r.Perm(n)
		return out[:1+r.Intn(n)]
	}
	ids := r.Perm(nr)
	var made [][2][]int
	for i := 0; i < nr; i++ {
		var users, perms []int
		switch k := r.Intn(8); {
		case k < 2: // single user
			users, perms = []int{r.Intn(nu)}, some(np)
		case k < 4: // single permission
			users, perms = some(nu), []int{r.Intn(np)}
		case k == 4: // single on both sides
			users, perms = []int{r.Intn(nu)}, []int{r.Intn(np)}
		case k == 5 && len(made) > 0: // copy: a mutually covering pair
			c := made[r.Intn(len(made))]
			users, perms = c[0], c[1]
		case k == 6: // wide
			users, perms = some(nu), some(np)
		default: // class 1 or 2
			if r.Intn(2) == 0 {
				users = some(nu)
			} else if r.Intn(2) == 0 {
				perms = some(np)
			}
		}
		made = append(made, [2][]int{users, perms})
		role := rbac.RoleID(fmt.Sprintf("r%02d", ids[i]))
		d.EnsureRole(role)
		for _, ui := range users {
			_ = d.AssignUser(role, d.User(ui))
		}
		for _, pi := range perms {
			_ = d.AssignPermission(role, d.Permission(pi))
		}
	}
	return d
}

func TestEliminateMatchesBruteForce(t *testing.T) {
	// The indexed, compact-once elimination pass must emit the same
	// actions and leave the same dataset as the brute-force scan, the
	// full pipeline built on either must produce the same plan, and the
	// plan's edge deltas must add up to the real change.
	class3, class5 := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		d := singleAssignmentDataset(rand.New(rand.NewSource(seed)))
		got := &planner{ctx: context.Background(), cur: d.Clone()}
		want := &planner{ctx: context.Background(), cur: d.Clone()}
		rep, err := got.analyze(true, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.eliminate(rep); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := eliminateReference(want, rep); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		assertSameState(t, seed, "elimination", got, want)
		for _, a := range got.actions {
			if a.Class == 3 {
				class3++
			}
		}

		if err := want.mergeToConvergence(); err != nil {
			t.Fatalf("seed %d: reference merge: %v", seed, err)
		}
		res := mustRun(t, d, Knobs{})
		got = &planner{actions: res.Plan.Actions, cur: res.Optimized, rounds: res.Rounds}
		assertSameState(t, seed, "plan", got, want)
		edges := func(s rbac.Stats) int { return s.UserAssignments + s.PermissionAssignments }
		if got, want := res.Plan.EdgesDelta(), edges(res.After)-edges(res.Before); got != want {
			t.Fatalf("seed %d: plan claims %d edges, the datasets differ by %d", seed, got, want)
		}
		for _, a := range res.Plan.Actions {
			if a.Class == 5 {
				class5++
			}
		}
	}
	if class3 < 100 || class5 < 10 {
		t.Fatalf("only %d class-3 drops and %d class-5 merges across the corpus; the generator no longer exercises them",
			class3, class5)
	}
}

// assertSameState compares two planners' actions and datasets as JSON.
func assertSameState(t *testing.T, seed int64, stage string, got, want *planner) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"actions", got.actions, want.actions},
		{"dataset", got.cur, want.cur},
		{"rounds", got.rounds, want.rounds},
	} {
		a, err := json.Marshal(c.got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: %s %s differ from the brute-force reference:\n%s\nvs\n%s",
				seed, stage, c.name, a, b)
		}
	}
}

func TestEliminateRejectsRoleListedTwice(t *testing.T) {
	// A report listing one dead role twice must fail the pass, as a
	// second RemoveRole of the same role always did, and must leave the
	// dataset uncompacted.
	d := build(t, []string{"u1"}, []string{"p1"}, map[string][2][]string{
		"dead": {nil, nil},
		"live": {{"u1"}, {"p1"}},
	})
	p := &planner{ctx: context.Background(), cur: d}
	rep := &core.Report{StandaloneRoles: []rbac.RoleID{"dead"}, RolesWithoutUsers: []rbac.RoleID{"dead"}}
	err := p.eliminate(rep)
	if err == nil || !strings.Contains(err.Error(), `dropped role "dead" not in dataset`) {
		t.Fatalf("err = %v, want the not-in-dataset error", err)
	}
	if d.NumRoles() != 2 {
		t.Fatalf("%d roles left after a failed pass, want 2", d.NumRoles())
	}
}
