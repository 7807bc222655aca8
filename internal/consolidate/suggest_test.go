package consolidate

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/rbac"
)

// similarDataset builds roles r1={u1,u2}/{pA} and r2={u1,u2,u3}/{pB}:
// similar on the user side (distance 1). Merging would give u1,u2,u3
// both permissions; u3 lacks pA today and u1,u2 lack pB.
func similarDataset(t *testing.T) *rbac.Dataset {
	t.Helper()
	d := rbac.NewDataset()
	for _, u := range []rbac.UserID{"u1", "u2", "u3"} {
		if err := d.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []rbac.PermissionID{"pA", "pB"} {
		if err := d.AddPermission(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []rbac.RoleID{"r1", "r2"} {
		if err := d.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []rbac.UserID{"u1", "u2"} {
		if err := d.AssignUser("r1", u); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []rbac.UserID{"u1", "u2", "u3"} {
		if err := d.AssignUser("r2", u); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AssignPermission("r1", "pA"); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPermission("r2", "pB"); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSuggestSimilarDelta(t *testing.T) {
	d := similarDataset(t)
	rep, err := core.Analyze(d, core.Options{SimilarThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	suggestions, err := SuggestSimilar(d, rep)
	if err != nil {
		t.Fatal(err)
	}
	var userSide *Suggestion
	for i := range suggestions {
		if suggestions[i].Side == SideUsers {
			userSide = &suggestions[i]
		}
	}
	if userSide == nil {
		t.Fatalf("no user-side suggestion in %+v", suggestions)
	}
	if !reflect.DeepEqual(userSide.Roles, []rbac.RoleID{"r1", "r2"}) {
		t.Fatalf("roles = %v", userSide.Roles)
	}
	// Merging grants: only u3 gains pA — u1 and u2 already hold pB
	// effectively through r2, so the union adds nothing for them.
	want := []Grant{
		{User: "u3", Permission: "pA"},
	}
	got := append([]Grant(nil), userSide.AddedGrants...)
	sort.Slice(got, func(i, j int) bool {
		if got[i].User != got[j].User {
			return got[i].User < got[j].User
		}
		return got[i].Permission < got[j].Permission
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AddedGrants = %v, want %v", got, want)
	}
	if userSide.RiskFree() {
		t.Fatal("suggestion with grants reported risk-free")
	}
}

func TestSuggestSimilarRiskFreeFirst(t *testing.T) {
	// Figure 1's class-5 groups at k=1 include the exact class-4 pairs,
	// whose merge deltas are empty; those must sort before risky ones.
	d := rbac.Figure1()
	rep, err := core.Analyze(d, core.Options{SimilarThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	suggestions, err := SuggestSimilar(d, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	for i := 1; i < len(suggestions); i++ {
		if len(suggestions[i-1].AddedGrants) > len(suggestions[i].AddedGrants) {
			t.Fatalf("suggestions not sorted by risk: %+v", suggestions)
		}
	}
	if !suggestions[0].RiskFree() {
		t.Fatalf("first suggestion not risk-free: %+v", suggestions[0])
	}
}

func TestSuggestSimilarUnknownRole(t *testing.T) {
	d := similarDataset(t)
	rep := &core.Report{
		SimilarUserGroups: []core.RoleGroup{{Roles: []rbac.RoleID{"ghost", "r1"}}},
	}
	if _, err := SuggestSimilar(d, rep); err == nil {
		t.Fatal("unknown role accepted")
	}
}

// applySuggestion merges a suggestion's roles into the first, folding
// both sides, on a copy of the dataset: the merge the planner makes of a
// risk-free suggestion.
func applySuggestion(d *rbac.Dataset, s Suggestion) (*rbac.Dataset, error) {
	out := d.Clone()
	for _, victim := range s.Roles[1:] {
		if _, err := out.FoldRole(s.Roles[0], victim, true, true); err != nil {
			return nil, err
		}
	}
	return out, out.RemoveRoles(s.Roles[1:])
}

func TestApplySuggestionMatchesDelta(t *testing.T) {
	d := similarDataset(t)
	rep, err := core.Analyze(d, core.Options{SimilarThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	suggestions, err := SuggestSimilar(d, rep)
	if err != nil {
		t.Fatal(err)
	}
	var s *Suggestion
	for i := range suggestions {
		if suggestions[i].Side == SideUsers {
			s = &suggestions[i]
		}
	}
	if s == nil {
		t.Fatal("no user-side suggestion")
	}
	after, err := applySuggestion(d, *s)
	if err != nil {
		t.Fatal(err)
	}
	if after.NumRoles() != d.NumRoles()-1 {
		t.Fatalf("roles after = %d", after.NumRoles())
	}
	// The realised delta equals the predicted delta exactly.
	delta := GrantDelta(d, after)
	predicted := append([]Grant(nil), s.AddedGrants...)
	sort.Slice(predicted, func(i, j int) bool {
		if predicted[i].User != predicted[j].User {
			return predicted[i].User < predicted[j].User
		}
		return predicted[i].Permission < predicted[j].Permission
	})
	if !reflect.DeepEqual(delta, predicted) {
		t.Fatalf("realised delta %v != predicted %v", delta, predicted)
	}
}

func TestPropertyPredictedDeltaAlwaysRealised(t *testing.T) {
	// For random datasets, every suggestion's predicted delta must
	// match the realised delta when applied, and risk-free suggestions
	// must pass the full safety check.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		rep, err := core.Analyze(d, core.Options{SimilarThreshold: 1 + r.Intn(2)})
		if err != nil {
			return false
		}
		suggestions, err := SuggestSimilar(d, rep)
		if err != nil {
			return false
		}
		for _, s := range suggestions {
			after, err := applySuggestion(d, s)
			if err != nil {
				return false
			}
			delta := GrantDelta(d, after)
			if len(delta) != len(s.AddedGrants) {
				return false
			}
			if s.RiskFree() && VerifySafety(d, after) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGrantDeltaEmptyOnIdentical(t *testing.T) {
	d := rbac.Figure1()
	if delta := GrantDelta(d, d.Clone()); len(delta) != 0 {
		t.Fatalf("delta on identical datasets = %v", delta)
	}
}
