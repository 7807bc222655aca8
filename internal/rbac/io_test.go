package rbac

import (
	"bytes"
	"reflect"
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
	if !reflect.DeepEqual(back.RUAMCSR(), d.RUAMCSR()) {
		t.Fatal("RUAM changed through JSON round trip")
	}
	if !reflect.DeepEqual(back.RPAMCSR(), d.RPAMCSR()) {
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
