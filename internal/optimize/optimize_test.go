package optimize

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/consolidate"
	"repro/internal/core"
	"repro/internal/rbac"
)

// build assembles a dataset from explicit role assignments.
func build(t *testing.T, users, perms []string, roles map[string][2][]string) *rbac.Dataset {
	t.Helper()
	d := rbac.NewDataset()
	for _, u := range users {
		if err := d.AddUser(rbac.UserID(u)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range perms {
		if err := d.AddPermission(rbac.PermissionID(p)); err != nil {
			t.Fatal(err)
		}
	}
	// Deterministic role order: sort the names.
	names := make([]string, 0, len(roles))
	for r := range roles {
		names = append(names, r)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, r := range names {
		if err := d.AddRole(rbac.RoleID(r)); err != nil {
			t.Fatal(err)
		}
		for _, u := range roles[r][0] {
			if err := d.AssignUser(rbac.RoleID(r), rbac.UserID(u)); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range roles[r][1] {
			if err := d.AssignPermission(rbac.RoleID(r), rbac.PermissionID(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// mustRun runs the planner and asserts the built-in oracle held.
func mustRun(t *testing.T, d *rbac.Dataset, k Knobs) *Result {
	t.Helper()
	res, err := Run(d, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := consolidate.VerifySafety(d, res.Optimized); err != nil {
		t.Fatalf("reachability broken: %v", err)
	}
	if res.Optimized.NumRoles() > d.NumRoles() {
		t.Fatalf("role count grew: %d -> %d", d.NumRoles(), res.Optimized.NumRoles())
	}
	return res
}

func TestKnobsValidate(t *testing.T) {
	for _, k := range []Knobs{
		{MaxAddedEdges: -1},
		{MaxCandidates: -1},
		{MaxRounds: -1},
		{Workers: -1},
		{Analysis: core.Options{SimilarThreshold: -2}},
	} {
		if err := k.Validate(); err == nil {
			t.Fatalf("knobs %+v accepted", k)
		}
		if _, err := Run(rbac.Figure1(), k); err == nil {
			t.Fatalf("Run accepted knobs %+v", k)
		}
	}
	if err := (Knobs{}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEliminationsDropDeadRoles(t *testing.T) {
	d := build(t,
		[]string{"u1", "u2"},
		[]string{"p1", "p2"},
		map[string][2][]string{
			"live":     {{"u1", "u2"}, {"p1"}},
			"lonely":   {nil, nil},          // class 1: standalone
			"no-users": {nil, {"p1", "p2"}}, // class 2
			"no-perms": {{"u1", "u2"}, nil}, // class 2
		})
	res := mustRun(t, d, Knobs{})
	for _, gone := range []rbac.RoleID{"lonely", "no-users", "no-perms"} {
		if _, ok := res.Optimized.RoleIndex(gone); ok {
			t.Fatalf("role %q survived", gone)
		}
	}
	if _, ok := res.Optimized.RoleIndex("live"); !ok {
		t.Fatal("live role dropped")
	}
	if got := res.Plan.RolesRemoved(); got != 3 {
		t.Fatalf("plan removed %d roles, want 3", got)
	}
}

func TestRedundantSingleAssignmentDrops(t *testing.T) {
	// "extra" grants only (u1, p1), which "wide" also grants — droppable.
	// "wide" is single-user but grants p2 that nothing else covers.
	d := build(t,
		[]string{"u1"},
		[]string{"p1", "p2"},
		map[string][2][]string{
			"wide":  {{"u1"}, {"p1", "p2"}},
			"extra": {{"u1"}, {"p1"}},
		})
	res := mustRun(t, d, Knobs{})
	if _, ok := res.Optimized.RoleIndex("extra"); ok {
		t.Fatal("redundant role survived")
	}
	if _, ok := res.Optimized.RoleIndex("wide"); !ok {
		t.Fatal("covering role dropped")
	}
	var kinds []string
	for _, a := range res.Plan.Actions {
		kinds = append(kinds, a.Kind)
	}
	if len(kinds) != 1 || kinds[0] != KindDropRedundant {
		t.Fatalf("actions = %v", kinds)
	}
}

func TestMutuallyCoveringPairKeepsOne(t *testing.T) {
	// Two identical single-assignment roles cover each other; sequential
	// re-checking must drop exactly one (the survivor's coverage is gone).
	// The survivor then has nothing to merge with.
	d := build(t,
		[]string{"u1"},
		[]string{"p1"},
		map[string][2][]string{
			"a": {{"u1"}, {"p1"}},
			"b": {{"u1"}, {"p1"}},
		})
	res := mustRun(t, d, Knobs{})
	if res.Optimized.NumRoles() != 1 {
		t.Fatalf("%d roles survive, want 1", res.Optimized.NumRoles())
	}
}

func TestMergeConvergenceCascades(t *testing.T) {
	// Round 1: r1, r2 share users {u1,u2} and merge into r1 with perms
	// {p1,p2}. Round 2: r1 now shares its permission set with r3 and
	// merges again. One round would leave a detectable class-4 pair.
	d := build(t,
		[]string{"u1", "u2", "u3", "u4"},
		[]string{"p1", "p2"},
		map[string][2][]string{
			"r1": {{"u1", "u2"}, {"p1"}},
			"r2": {{"u1", "u2"}, {"p2"}},
			"r3": {{"u3", "u4"}, {"p1", "p2"}},
		})
	res := mustRun(t, d, Knobs{})
	if res.Optimized.NumRoles() != 1 {
		t.Fatalf("%d roles survive, want 1", res.Optimized.NumRoles())
	}
	if res.Rounds < 2 {
		t.Fatalf("converged in %d rounds, want >= 2", res.Rounds)
	}
	// Convergence means a fresh analysis finds no class-4 groups.
	rep, err := core.Analyze(res.Optimized, core.Options{SkipSimilar: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SameUserGroups)+len(rep.SamePermissionGroups) != 0 {
		t.Fatal("class-4 groups remain after convergence")
	}
}

func TestRiskFreeSimilarMerge(t *testing.T) {
	// r1 {u1,u2} and r2 {u1,u2,u3} are similar at k=1. Merging grants
	// u3 p1 — already held via r3 — so the merge is risk-free.
	d := build(t,
		[]string{"u1", "u2", "u3"},
		[]string{"p1", "p2", "p3"},
		map[string][2][]string{
			"r1": {{"u1", "u2"}, {"p1"}},
			"r2": {{"u1", "u2", "u3"}, {"p2"}},
			"r3": {{"u3"}, {"p1", "p3"}},
		})
	res := mustRun(t, d, Knobs{})
	found := false
	for _, a := range res.Plan.Actions {
		if a.Kind == KindMergeRoles && a.Class == 5 {
			found = true
			if a.Side != "both" {
				t.Fatalf("class-5 merge side %q", a.Side)
			}
		}
	}
	if !found {
		t.Fatalf("no risk-free class-5 merge planned; actions: %+v", res.Plan.Actions)
	}
	if res.Optimized.NumRoles() != 2 {
		t.Fatalf("%d roles survive, want 2", res.Optimized.NumRoles())
	}

	// With class-5 disabled the merge must not happen.
	res = mustRun(t, d, Knobs{Analysis: core.Options{SkipSimilar: true}})
	if res.Optimized.NumRoles() != 3 {
		t.Fatalf("skipSimilar: %d roles survive, want 3", res.Optimized.NumRoles())
	}
}

func TestMiningBeatsMerging(t *testing.T) {
	// No class-4/5 merge applies, but the 3-role set is reducible to the
	// 2 distinct effective rows by mining, shedding one edge too.
	d := build(t,
		[]string{"u1", "u2"},
		[]string{"p1", "p2", "p3"},
		map[string][2][]string{
			"r1": {{"u1"}, {"p1"}},
			"r2": {{"u1", "u2"}, {"p2"}},
			"r3": {{"u2"}, {"p3"}},
		})
	res := mustRun(t, d, Knobs{Mine: true})
	if !res.Mined {
		t.Fatalf("mining not accepted: %s", res.MiningNote)
	}
	if res.Optimized.NumRoles() != 2 {
		t.Fatalf("%d roles survive, want 2", res.Optimized.NumRoles())
	}
	if res.Plan.EdgesDelta() > 0 {
		t.Fatalf("edges grew by %d", res.Plan.EdgesDelta())
	}

	// Without the knob the miner must not run and the roles survive.
	res = mustRun(t, d, Knobs{})
	if res.Mined || res.Optimized.NumRoles() != 3 {
		t.Fatalf("mined=%v roles=%d without the knob", res.Mined, res.Optimized.NumRoles())
	}
}

func TestMiningRejectedWhenNotSmaller(t *testing.T) {
	// A single role already minimal: mining cannot beat it and the note
	// must say so.
	d := build(t,
		[]string{"u1", "u2"},
		[]string{"p1"},
		map[string][2][]string{"only": {{"u1", "u2"}, {"p1"}}})
	res := mustRun(t, d, Knobs{Mine: true})
	if res.Mined {
		t.Fatal("mining accepted with nothing to gain")
	}
	if res.MiningNote == "" {
		t.Fatal("no mining note")
	}
}

func TestPlanApplyMatchesOptimized(t *testing.T) {
	// Replaying the emitted plan — after a JSON round-trip — must
	// reproduce the optimized dataset byte-for-byte.
	for _, k := range []Knobs{{}, {Mine: true}} {
		d := rbac.Figure1()
		res := mustRun(t, d, k)
		raw, err := json.Marshal(&res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Plan
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}
		replayed, err := Apply(d, &decoded)
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(replayed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Optimized)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("replay mismatch (mine=%v):\n%s\nvs\n%s", k.Mine, a, b)
		}
	}
}

func TestResultDeterministic(t *testing.T) {
	d := rbac.Figure1()
	r1 := mustRun(t, d, Knobs{Mine: true})
	r2 := mustRun(t, d, Knobs{Mine: true})
	a, _ := json.Marshal(r1)
	b, _ := json.Marshal(r2)
	if !bytes.Equal(a, b) {
		t.Fatal("same input produced different results")
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, rbac.Figure1(), Knobs{Mine: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestApplyRejectsMalformedPlans(t *testing.T) {
	d := rbac.Figure1()
	for _, p := range []*Plan{
		{Actions: []Action{{Kind: "warp-roles"}}},
		{Actions: []Action{{Kind: KindDropRole, Role: "no-such-role"}}},
		{Actions: []Action{{Kind: KindMergeRoles, Keep: "R01", Remove: []rbac.RoleID{"R02"}, Side: "sideways"}}},
		{Actions: []Action{{Kind: KindMergeRoles, Keep: "ghost", Remove: []rbac.RoleID{"R02"}, Side: "users"}}},
	} {
		if _, err := Apply(d, p); err == nil {
			t.Fatalf("plan %+v accepted", p)
		}
	}
}

func TestMaxRoundsCapsConvergence(t *testing.T) {
	// The cascade from TestMergeConvergenceCascades needs two rounds;
	// capping at one must stop after the first.
	d := build(t,
		[]string{"u1", "u2", "u3", "u4"},
		[]string{"p1", "p2"},
		map[string][2][]string{
			"r1": {{"u1", "u2"}, {"p1"}},
			"r2": {{"u1", "u2"}, {"p2"}},
			"r3": {{"u3", "u4"}, {"p1", "p2"}},
		})
	res := mustRun(t, d, Knobs{MaxRounds: 1})
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	if res.Optimized.NumRoles() != 2 {
		t.Fatalf("%d roles survive, want 2", res.Optimized.NumRoles())
	}
}

// TestApplyRejectsKeeperInRemove: a merge action that also lists its
// keeper among the roles to remove must fail, not delete the keeper and
// with it every grant the merge meant to keep.
func TestApplyRejectsKeeperInRemove(t *testing.T) {
	d := build(t, []string{"u1"}, []string{"p1"}, map[string][2][]string{
		"k": {{"u1"}, {"p1"}},
		"v": {{"u1"}, {"p1"}},
	})
	p := &Plan{Actions: []Action{{Kind: KindMergeRoles, Keep: "k", Remove: []rbac.RoleID{"v", "k"}, Side: "users"}}}
	if after, err := Apply(d, p); err == nil {
		t.Fatalf("keeper listed in Remove accepted, %d roles left", after.NumRoles())
	}
}

// TestApplyRejectsDeletedRoles: an action that names a role an earlier
// action of the plan deleted fails, and the error names that action,
// although Apply deletes the roles of a run of actions together.
func TestApplyRejectsDeletedRoles(t *testing.T) {
	// Figure 1: R02 and R04 share their users, R04 and R05 their
	// permissions.
	d := rbac.Figure1()
	merge := func(keep rbac.RoleID, side string, remove ...rbac.RoleID) Action {
		return Action{Kind: KindMergeRoles, Keep: keep, Remove: remove, Side: side}
	}
	for _, tc := range []struct {
		name    string
		actions []Action
	}{
		{"dropped twice", []Action{
			{Kind: KindDropRole, Role: "R03"}, {Kind: KindDropRedundant, Role: "R03"}}},
		{"merge into a dropped role", []Action{
			{Kind: KindDropRole, Role: "R02"}, merge("R02", "users", "R04")}},
		{"merge a dropped role", []Action{
			{Kind: KindDropRole, Role: "R04"}, merge("R02", "users", "R04")}},
		{"drop a merged role", []Action{
			merge("R02", "users", "R04"), {Kind: KindDropRole, Role: "R04"}}},
		{"merge into a merged role", []Action{
			merge("R02", "users", "R04"), merge("R04", "permissions", "R05")}},
		{"merge a role twice", []Action{
			merge("R04", "permissions", "R05"), merge("R02", "users", "R05")}},
	} {
		_, err := Apply(d, &Plan{Actions: tc.actions})
		if err == nil || !strings.Contains(err.Error(), "action 1 (") {
			t.Errorf("%s: err = %v, want a failure at action 1", tc.name, err)
		}
	}
	// Chaining is allowed: a keeper can be merged away by a later action.
	p := &Plan{Actions: []Action{merge("R02", "users", "R04"), merge("R05", "both", "R02")}}
	if _, err := Apply(d, p); err != nil {
		t.Fatalf("chained merges: %v", err)
	}
}
