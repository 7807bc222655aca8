package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rbac"
)

// TestWorkersParityThroughFacade asserts that requesting parallel
// execution through the facade leaves the answer unchanged for every
// deterministic backend: the exact methods and LSH must produce
// byte-identical groups at any worker count.
func TestWorkersParityThroughFacade(t *testing.T) {
	methods := []Method{MethodRoleDiet, MethodDBSCAN, MethodDBSCANFloat64, MethodLSH}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 2+r.Intn(40), 1+r.Intn(14), 0.3, r.Intn(6))
		k := r.Intn(3)
		workers := 2 + r.Intn(7)
		for _, m := range methods {
			serial, err := FindRoleGroups(context.Background(), csrOf(rows), GroupOptions{Method: m, Threshold: k})
			if err != nil {
				return false
			}
			par, err := FindRoleGroups(context.Background(), csrOf(rows), GroupOptions{Method: m, Threshold: k, Workers: workers})
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(serial, par) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkersNegativeRejected covers every layer a negative worker
// count can arrive through: direct GroupOptions, direct Options, and
// the JSON request bodies used by the server and jobs API.
func TestWorkersNegativeRejected(t *testing.T) {
	rows := randRows(rand.New(rand.NewSource(1)), 8, 8, 0.5, 2)
	if _, err := FindRoleGroups(context.Background(), csrOf(rows), GroupOptions{Workers: -1}); err == nil {
		t.Error("FindRoleGroups accepted negative workers")
	}
	if err := (Options{Workers: -2}).Validate(); err == nil {
		t.Error("Options.Validate accepted negative workers")
	}
	var g GroupOptions
	if err := json.Unmarshal([]byte(`{"workers": -3}`), &g); err == nil ||
		!strings.Contains(err.Error(), "negative workers") {
		t.Errorf("GroupOptions JSON decode: err = %v", err)
	}
	var o Options
	if err := json.Unmarshal([]byte(`{"workers": -4}`), &o); err == nil ||
		!strings.Contains(err.Error(), "negative workers") {
		t.Errorf("Options JSON decode: err = %v", err)
	}
}

// TestAnalyzeWorkersParity runs the whole analysis with Workers set and
// checks the report matches the serial one field for field (durations
// aside).
func TestAnalyzeWorkersParity(t *testing.T) {
	d := rbac.Figure1()
	serial, err := Analyze(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Analyze(d, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial.LinearScanDuration, par.LinearScanDuration = 0, 0
	serial.SameGroupsDuration, par.SameGroupsDuration = 0, 0
	serial.SimilarGroupDuration, par.SimilarGroupDuration = 0, 0
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel report differs from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}
