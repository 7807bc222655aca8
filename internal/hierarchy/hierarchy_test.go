package hierarchy

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rbac"
)

// buildChain creates roles r0..r(n-1) with permission p<i> on role i.
func buildChain(t *testing.T, n int) *rbac.Dataset {
	t.Helper()
	d := rbac.NewDataset()
	if err := d.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		role := rbac.RoleID(string(rune('a' + i)))
		if err := d.AddRole(role); err != nil {
			t.Fatal(err)
		}
		perm := rbac.PermissionID(string(rune('A' + i)))
		if err := d.AddPermission(perm); err != nil {
			t.Fatal(err)
		}
		if err := d.AssignPermission(role, perm); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAddInheritanceValidation(t *testing.T) {
	h := New(buildChain(t, 2))
	if err := h.AddInheritance("ghost", "a"); err == nil {
		t.Fatal("unknown senior accepted")
	}
	if err := h.AddInheritance("a", "ghost"); err == nil {
		t.Fatal("unknown junior accepted")
	}
	if err := h.AddInheritance("a", "a"); err == nil {
		t.Fatal("self-inheritance accepted")
	}
	if err := h.AddInheritance("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddInheritance("a", "b"); err != nil {
		t.Fatal("duplicate edge should be a no-op")
	}
	if h.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", h.NumEdges())
	}
	juniors, err := h.Juniors("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(juniors, []rbac.RoleID{"b"}) {
		t.Fatalf("Juniors = %v", juniors)
	}
	if _, err := h.Juniors("ghost"); err == nil {
		t.Fatal("Juniors on unknown role accepted")
	}
}

func TestFlattenChain(t *testing.T) {
	// a -> b -> c: a's flattened permissions are {A, B, C}.
	h := New(buildChain(t, 3))
	if err := h.AddInheritance("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddInheritance("b", "c"); err != nil {
		t.Fatal(err)
	}
	flat, err := h.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	perms, err := flat.RolePermissions("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(perms, []rbac.PermissionID{"A", "B", "C"}) {
		t.Fatalf("flattened a = %v", perms)
	}
	perms, _ = flat.RolePermissions("b")
	if !reflect.DeepEqual(perms, []rbac.PermissionID{"B", "C"}) {
		t.Fatalf("flattened b = %v", perms)
	}
	perms, _ = flat.RolePermissions("c")
	if !reflect.DeepEqual(perms, []rbac.PermissionID{"C"}) {
		t.Fatalf("flattened c = %v", perms)
	}
	// The original dataset is untouched.
	orig, _ := h.Dataset().RolePermissions("a")
	if len(orig) != 1 {
		t.Fatalf("original dataset mutated: %v", orig)
	}
}

func TestFlattenedDetection(t *testing.T) {
	// Two seniors inheriting the same junior chain spell the same
	// effective permission set differently; flat detection on the
	// flattened dataset must group them.
	d := rbac.NewDataset()
	if err := d.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []rbac.RoleID{"senior1", "senior2", "base"} {
		if err := d.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddPermission("P"); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPermission("base", "P"); err != nil {
		t.Fatal(err)
	}
	// senior1 holds P directly; senior2 only via inheritance.
	if err := d.AssignPermission("senior1", "P"); err != nil {
		t.Fatal(err)
	}
	h := New(d)
	if err := h.AddInheritance("senior2", "base"); err != nil {
		t.Fatal(err)
	}
	flat, err := h.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(flat, core.Options{SkipSimilar: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range rep.SamePermissionGroups {
		has := map[rbac.RoleID]bool{}
		for _, r := range g.Roles {
			has[r] = true
		}
		if has["senior1"] && has["senior2"] {
			found = true
		}
	}
	if !found {
		t.Fatalf("flattened detection missed the equivalent seniors: %+v", rep.SamePermissionGroups)
	}
}

func TestRedundantEdges(t *testing.T) {
	// a -> b -> c plus the shortcut a -> c: the shortcut is redundant.
	h := New(buildChain(t, 3))
	for _, e := range [][2]rbac.RoleID{{"a", "b"}, {"b", "c"}, {"a", "c"}} {
		if err := h.AddInheritance(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	got := h.RedundantEdges()
	want := []RedundantEdge{{Senior: "a", Junior: "c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RedundantEdges = %v, want %v", got, want)
	}
}

func TestNoRedundantEdgesInTree(t *testing.T) {
	h := New(buildChain(t, 4))
	for _, e := range [][2]rbac.RoleID{{"a", "b"}, {"a", "c"}, {"b", "d"}} {
		if err := h.AddInheritance(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.RedundantEdges(); len(got) != 0 {
		t.Fatalf("RedundantEdges = %v, want none", got)
	}
}

func TestCycles(t *testing.T) {
	h := New(buildChain(t, 4))
	for _, e := range [][2]rbac.RoleID{{"a", "b"}, {"b", "c"}, {"c", "a"}} {
		if err := h.AddInheritance(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	got := h.Cycles()
	want := []rbac.RoleID{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Cycles = %v, want %v", got, want)
	}
	// d is outside the cycle.
	for _, r := range got {
		if r == "d" {
			t.Fatal("acyclic role reported in cycle")
		}
	}
}

func TestNoCyclesInDAG(t *testing.T) {
	h := New(buildChain(t, 3))
	if err := h.AddInheritance("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddInheritance("a", "c"); err != nil {
		t.Fatal(err)
	}
	if got := h.Cycles(); len(got) != 0 {
		t.Fatalf("Cycles = %v in a DAG", got)
	}
}

func TestCyclicFlattenStillTerminates(t *testing.T) {
	h := New(buildChain(t, 2))
	if err := h.AddInheritance("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddInheritance("b", "a"); err != nil {
		t.Fatal(err)
	}
	flat, err := h.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	// Both cycle members reach both permissions.
	for _, r := range []rbac.RoleID{"a", "b"} {
		perms, err := flat.RolePermissions(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(perms) != 2 {
			t.Fatalf("cyclic flatten: %s has %v", r, perms)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	d := buildChain(t, 3)
	h := New(d)
	if err := h.AddInheritance("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddInheritance("b", "c"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteEdges(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdges(d, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != 2 {
		t.Fatalf("edges after round trip = %d", back.NumEdges())
	}
	juniors, err := back.Juniors("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(juniors) != 1 || juniors[0] != "b" {
		t.Fatalf("juniors = %v", juniors)
	}
}

func TestReadEdgesErrors(t *testing.T) {
	d := buildChain(t, 2)
	if _, err := ReadEdges(d, strings.NewReader("{bad")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	ghost := `{"inheritance":[{"senior":"a","junior":"ghost"}]}`
	if _, err := ReadEdges(d, strings.NewReader(ghost)); err == nil {
		t.Fatal("ghost junior accepted")
	}
}
