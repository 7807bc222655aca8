package rbac

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	d := figure1Dataset(t)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != d.Stats() {
		t.Fatalf("stats after round trip: %+v vs %+v", back.Stats(), d.Stats())
	}
	if !back.RUAM().Equal(d.RUAM()) {
		t.Fatal("RUAM changed through JSON round trip")
	}
	if !back.RPAM().Equal(d.RPAM()) {
		t.Fatal("RPAM changed through JSON round trip")
	}
	// Index orders preserved.
	if back.Role(2) != "R03" || back.User(3) != "U04" || back.Permission(0) != "P01" {
		t.Fatal("entity order not preserved")
	}
}

func TestJSONDeterministic(t *testing.T) {
	d := figure1Dataset(t)
	var a, b bytes.Buffer
	if err := d.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("JSON output not deterministic")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	// Edge referencing a missing role.
	bad := `{"users":["u"],"roles":[],"permissions":[],
	  "userAssignments":[{"role":"ghost","user":"u"}],"permissionAssignments":[]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("dangling edge accepted")
	}
	// Duplicate user entries.
	dup := `{"users":["u","u"],"roles":[],"permissions":[],
	  "userAssignments":[],"permissionAssignments":[]}`
	if _, err := ReadJSON(strings.NewReader(dup)); err == nil {
		t.Fatal("duplicate user accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := figure1Dataset(t)
	var userBuf, permBuf bytes.Buffer
	if err := d.WriteUserAssignmentsCSV(&userBuf); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePermissionAssignmentsCSV(&permBuf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAssignmentsCSV(&userBuf, &permBuf)
	if err != nil {
		t.Fatal(err)
	}
	// CSV carries only edges, so entities without any edge (standalone
	// user-less roles appear via perm edges, but P01 and fully
	// disconnected nodes are lost). Compare edge structure per shared
	// entity instead of full stats.
	if back.NumUserAssignments() != d.NumUserAssignments() {
		t.Fatalf("user edges = %d, want %d", back.NumUserAssignments(), d.NumUserAssignments())
	}
	if back.NumPermissionAssignments() != d.NumPermissionAssignments() {
		t.Fatalf("perm edges = %d, want %d", back.NumPermissionAssignments(), d.NumPermissionAssignments())
	}
	for _, role := range back.Roles() {
		wantUsers, err := d.RoleUsers(role)
		if err != nil {
			t.Fatal(err)
		}
		gotUsers, err := back.RoleUsers(role)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantUsers) != len(gotUsers) {
			t.Fatalf("role %s users %v vs %v", role, gotUsers, wantUsers)
		}
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	bad := strings.NewReader("user,role\na,b\n")
	if _, err := ReadAssignmentsCSV(bad, nil); err == nil {
		t.Fatal("wrong header accepted")
	}
	empty := strings.NewReader("")
	if _, err := ReadAssignmentsCSV(empty, nil); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestCSVFieldCountValidation(t *testing.T) {
	bad := strings.NewReader("role,user\na,b,c\n")
	if _, err := ReadAssignmentsCSV(bad, nil); err == nil {
		t.Fatal("3-field row accepted")
	}
}

func TestReadAssignmentsCSVNilReaders(t *testing.T) {
	d, err := ReadAssignmentsCSV(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRoles() != 0 {
		t.Fatal("nil readers produced entities")
	}
	users := strings.NewReader("role,user\nr1,u1\nr1,u2\n")
	d, err = ReadAssignmentsCSV(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRoles() != 1 || d.NumUsers() != 2 || d.NumUserAssignments() != 2 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

// TestReadAssignmentsCSVUnsortedRows: edges are appended to their rows
// in file order and each row sorted once, so a role listing its users
// and permissions in descending index order, one edge twice, still
// loads into valid rows.
func TestReadAssignmentsCSVUnsortedRows(t *testing.T) {
	users := strings.NewReader("role,user\nr2,u1\nr2,u2\nr2,u3\nr1,u3\nr1,u2\nr1,u1\nr1,u2\n")
	perms := strings.NewReader("role,permission\nr2,p1\nr2,p2\nr1,p2\nr1,p1\nr1,p2\n")
	d, err := ReadAssignmentsCSV(users, perms)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumUserAssignments() != 6 || d.NumPermissionAssignments() != 4 {
		t.Fatalf("stats = %+v, want 6 user and 4 permission edges", d.Stats())
	}
}
