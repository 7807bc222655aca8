package repro

// Repository-level integration tests: the shipped sample data must stay
// loadable and must reproduce the paper's Figure 1 findings end to end.

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rbac"
)

func TestShippedFigure1Dataset(t *testing.T) {
	f, err := os.Open("testdata/figure1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := rbac.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-for-byte semantic parity with the programmatic fixture.
	want := rbac.Figure1()
	if ds.Stats() != want.Stats() {
		t.Fatalf("shipped dataset stats %+v, want %+v", ds.Stats(), want.Stats())
	}
	if !reflect.DeepEqual(ds.RUAMCSR(), want.RUAMCSR()) || !reflect.DeepEqual(ds.RPAMCSR(), want.RPAMCSR()) {
		t.Fatal("shipped dataset matrices differ from rbac.Figure1()")
	}

	rep, err := core.Analyze(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SameUserGroups) != 1 || len(rep.SamePermissionGroups) != 1 {
		t.Fatalf("shipped dataset audit: %+v / %+v",
			rep.SameUserGroups, rep.SamePermissionGroups)
	}
}
