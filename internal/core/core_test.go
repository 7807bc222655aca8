package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/rbac"
)

func TestKindStrings(t *testing.T) {
	want := map[InefficiencyKind]string{
		KindStandaloneNode:   "standalone-node",
		KindDisconnectedRole: "disconnected-role",
		KindSingleAssignment: "single-assignment",
		KindSameGroup:        "same-group",
		KindSimilarGroup:     "similar-group",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if !strings.Contains(InefficiencyKind(42).String(), "42") {
		t.Error("unknown kind string")
	}
}

func TestAnalyzeFigure1(t *testing.T) {
	rep, err := Analyze(rbac.Figure1(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Class 1: no standalone users; P01 standalone; no standalone roles.
	if len(rep.StandaloneUsers) != 0 {
		t.Errorf("standalone users = %v", rep.StandaloneUsers)
	}
	if !reflect.DeepEqual(rep.StandalonePermissions, []rbac.PermissionID{"P01"}) {
		t.Errorf("standalone permissions = %v, want [P01]", rep.StandalonePermissions)
	}
	if len(rep.StandaloneRoles) != 0 {
		t.Errorf("standalone roles = %v", rep.StandaloneRoles)
	}

	// Class 2: R03 has no users; R02 has no permissions.
	if !reflect.DeepEqual(rep.RolesWithoutUsers, []rbac.RoleID{"R03"}) {
		t.Errorf("roles without users = %v, want [R03]", rep.RolesWithoutUsers)
	}
	if !reflect.DeepEqual(rep.RolesWithoutPermissions, []rbac.RoleID{"R02"}) {
		t.Errorf("roles without permissions = %v, want [R02]", rep.RolesWithoutPermissions)
	}

	// Class 3: R01 and R05 single user; R01 single permission.
	if !reflect.DeepEqual(rep.RolesWithSingleUser, []rbac.RoleID{"R01", "R05"}) {
		t.Errorf("single-user roles = %v, want [R01 R05]", rep.RolesWithSingleUser)
	}
	if !reflect.DeepEqual(rep.RolesWithSinglePermission, []rbac.RoleID{"R01"}) {
		t.Errorf("single-permission roles = %v, want [R01]", rep.RolesWithSinglePermission)
	}

	// Class 4: R02+R04 same users; R04+R05 same permissions.
	if len(rep.SameUserGroups) != 1 ||
		!reflect.DeepEqual(rep.SameUserGroups[0].Roles, []rbac.RoleID{"R02", "R04"}) {
		t.Errorf("same-user groups = %v", rep.SameUserGroups)
	}
	if len(rep.SamePermissionGroups) != 1 ||
		!reflect.DeepEqual(rep.SamePermissionGroups[0].Roles, []rbac.RoleID{"R04", "R05"}) {
		t.Errorf("same-permission groups = %v", rep.SamePermissionGroups)
	}

	// Class 5 (k=1): similar-user groups chain {R01?}.. verify it at
	// least contains the class-4 members (distance 0 <= 1).
	foundUserGroup := false
	for _, g := range rep.SimilarUserGroups {
		has := map[rbac.RoleID]bool{}
		for _, r := range g.Roles {
			has[r] = true
		}
		if has["R02"] && has["R04"] {
			foundUserGroup = true
		}
	}
	if !foundUserGroup {
		t.Errorf("similar-user groups %v missing R02/R04", rep.SimilarUserGroups)
	}
}

func TestAnalyzeSkipFlags(t *testing.T) {
	ds := rbac.Figure1()
	rep, err := Analyze(ds, Options{SkipGroups: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SameUserGroups != nil || rep.SimilarUserGroups != nil {
		t.Fatal("SkipGroups still produced groups")
	}
	rep, err = Analyze(ds, Options{SkipSimilar: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SameUserGroups == nil {
		t.Fatal("SkipSimilar suppressed same groups")
	}
	if rep.SimilarUserGroups != nil {
		t.Fatal("SkipSimilar still produced similar groups")
	}
}

func TestAnalyzeInvalidOptions(t *testing.T) {
	if _, err := Analyze(rbac.Figure1(), Options{SimilarThreshold: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestAnalyzerSnapshotIsolation(t *testing.T) {
	ds := rbac.Figure1()
	a := NewAnalyzer(ds)
	if err := ds.RemoveRole("R01"); err != nil {
		t.Fatal(err)
	}
	rep, err := a.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Roles != 5 {
		t.Fatalf("analyzer observed later mutation: roles = %d", rep.Stats.Roles)
	}
}

func TestAllMethodsAgreeOnFigure1(t *testing.T) {
	ds := rbac.Figure1()
	var reports []*Report
	for _, m := range []Method{MethodRoleDiet, MethodDBSCAN, MethodHNSW, MethodDBSCANFloat64} {
		rep, err := Analyze(ds, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0].SameUserGroups, reports[i].SameUserGroups) {
			t.Errorf("method %s same-user groups differ: %v vs %v",
				reports[i].Method, reports[i].SameUserGroups, reports[0].SameUserGroups)
		}
		if !reflect.DeepEqual(reports[0].SamePermissionGroups, reports[i].SamePermissionGroups) {
			t.Errorf("method %s same-permission groups differ", reports[i].Method)
		}
	}
}

func TestMethodParseAndString(t *testing.T) {
	for _, name := range []string{"rolediet", "dbscan", "hnsw", "dbscan-float64"} {
		m, err := ParseMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != name {
			t.Errorf("round trip %q -> %q", name, m.String())
		}
	}
	// lsh is a retired method: it fails as any unknown name does.
	for _, name := range []string{"kmeans", "lsh"} {
		if _, err := ParseMethod(name); err == nil {
			t.Fatalf("unknown method %q accepted", name)
		}
	}
	if !strings.Contains(Method(9).String(), "9") {
		t.Fatal("unknown method string")
	}
}

func TestFindRoleGroupsValidation(t *testing.T) {
	rows := []*bitvec.Vector{bitvec.New(4), bitvec.New(4)}
	if _, err := FindRoleGroups(context.Background(), widthOf(rows), sparseRows(rows), GroupOptions{Threshold: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := FindRoleGroups(context.Background(), widthOf(rows), sparseRows(rows), GroupOptions{Method: Method(42)}); err == nil {
		t.Fatal("unknown method accepted")
	}
	groups, err := FindRoleGroups(context.Background(), 4, nil, GroupOptions{})
	if err != nil || groups != nil {
		t.Fatalf("empty input = (%v, %v)", groups, err)
	}
}

func TestFindRoleGroupsDefaultMethod(t *testing.T) {
	rows := []*bitvec.Vector{
		bitvec.FromIndices(8, []int{1, 2}),
		bitvec.FromIndices(8, []int{1, 2}),
	}
	groups, err := FindRoleGroups(context.Background(), widthOf(rows), sparseRows(rows), GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(groups, [][]int{{0, 1}}) {
		t.Fatalf("groups = %v", groups)
	}
}

// widthOf returns the width of equal-width rows, 0 when there are none.
func widthOf(rows []*bitvec.Vector) int {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Len()
}

// sparseRows lists each row's set columns as the sparse row
// FindRoleGroups takes.
func sparseRows(rows []*bitvec.Vector) [][]int32 {
	out := make([][]int32, len(rows))
	for i, r := range rows {
		for _, j := range r.Indices() {
			out[i] = append(out[i], int32(j))
		}
	}
	return out
}

func randRows(r *rand.Rand, n, dim int, density float64, dups int) []*bitvec.Vector {
	rows := make([]*bitvec.Vector, n)
	for i := range rows {
		v := bitvec.New(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < density {
				v.Set(j)
			}
		}
		rows[i] = v
	}
	for d := 0; d < dups && n >= 2; d++ {
		rows[r.Intn(n)] = rows[r.Intn(n)].Clone()
	}
	return rows
}

func TestPropertyExactMethodsAgreeThroughFacade(t *testing.T) {
	// The unified facade must give identical groups for all three exact
	// methods (rolediet, bit-packed DBSCAN, float64 DBSCAN) at any
	// threshold.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 2+r.Intn(30), 1+r.Intn(12), 0.3, r.Intn(6))
		k := r.Intn(3)
		a, err := FindRoleGroups(context.Background(), widthOf(rows), sparseRows(rows), GroupOptions{Method: MethodRoleDiet, Threshold: k})
		if err != nil {
			return false
		}
		for _, m := range []Method{MethodDBSCAN, MethodDBSCANFloat64} {
			b, err := FindRoleGroups(context.Background(), widthOf(rows), sparseRows(rows), GroupOptions{Method: m, Threshold: k})
			if err != nil {
				return false
			}
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			if !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHNSWNeverInventsGroups(t *testing.T) {
	// HNSW may miss pairs (approximate recall) but must never co-group
	// roles that are farther than the threshold from every member of
	// their group (soundness via verified distances).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 2+r.Intn(25), 2+r.Intn(12), 0.3, r.Intn(5))
		k := r.Intn(2)
		groups, err := FindRoleGroups(context.Background(), widthOf(rows), sparseRows(rows), GroupOptions{Method: MethodHNSW, Threshold: k})
		if err != nil {
			return false
		}
		for _, g := range groups {
			for _, i := range g {
				ok := false
				for _, j := range g {
					if i != j && rows[i].Hamming(rows[j]) <= k {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupStats(t *testing.T) {
	groups := []RoleGroup{
		{Roles: []rbac.RoleID{"a", "b"}},
		{Roles: []rbac.RoleID{"c", "d", "e"}},
	}
	s := StatsOf(groups)
	if s.Groups != 2 || s.RolesInGroups != 5 || s.Reducible != 3 || s.LargestGroup != 3 {
		t.Fatalf("StatsOf = %+v", s)
	}
	if got := StatsOf(nil); got != (GroupStats{}) {
		t.Fatalf("StatsOf(nil) = %+v", got)
	}
}

func TestReportSummaryAndJSON(t *testing.T) {
	rep, err := Analyze(rbac.Figure1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{
		"standalone permissions",
		"roles without users",
		"roles sharing the same users",
		"method=rolediet",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if rep.TotalReducibleRoles() != 2 {
		t.Fatalf("TotalReducibleRoles = %d, want 2", rep.TotalReducibleRoles())
	}

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.SameUserGroups, rep.SameUserGroups) {
		t.Fatal("report JSON round trip lost groups")
	}
}

func TestEmptyDataset(t *testing.T) {
	rep, err := Analyze(rbac.NewDataset(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Roles != 0 || len(rep.SameUserGroups) != 0 {
		t.Fatalf("empty dataset report = %+v", rep)
	}
	if rep.TotalReducibleRoles() != 0 {
		t.Fatal("empty dataset reducible != 0")
	}
}
