package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOptimizeCommand(t *testing.T) {
	path := writeFigure1(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "optimized.json")
	planPath := filepath.Join(dir, "plan.json")

	stdout, _, err := runCLI(t, "optimize", "-data", path, "-out", out, "-plan", planPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "roles 5 ->") ||
		!strings.Contains(stdout, "reachability verified") {
		t.Fatalf("optimize output:\n%s", stdout)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("optimized dataset not written: %v", err)
	}

	// The saved plan replays against the same input and reports the
	// same final role count.
	applied, _, err := runCLI(t, "optimize", "-data", path, "-apply", planPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(applied, "replayed") {
		t.Fatalf("apply output:\n%s", applied)
	}

	// JSON mode emits the full result.
	jsonOut, _, err := runCLI(t, "optimize", "-data", path, "-format", "json", "-mine")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Plan struct {
			Actions []json.RawMessage `json:"actions"`
		} `json:"plan"`
		Optimized json.RawMessage `json:"optimized"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &res); err != nil {
		t.Fatalf("optimize -format json: %v\n%s", err, jsonOut)
	}
	if len(res.Plan.Actions) == 0 || len(res.Optimized) == 0 {
		t.Fatalf("json result incomplete:\n%s", jsonOut)
	}

	if _, _, err := runCLI(t, "optimize"); err == nil {
		t.Fatal("missing -data accepted")
	}
}

func TestOptimizeNormalize(t *testing.T) {
	path := writeFigure1(t)
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	if _, _, err := runCLI(t, "optimize", "-data", path, "-plan", planPath); err != nil {
		t.Fatal(err)
	}

	// The indented plan file and the full JSON result normalise to the
	// same canonical bytes.
	fromPlan, _, err := runCLI(t, "optimize", "-normalize", planPath)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := runCLI(t, "optimize", "-data", path, "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	resPath := filepath.Join(dir, "result.json")
	if err := os.WriteFile(resPath, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	fromResult, _, err := runCLI(t, "optimize", "-normalize", resPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromPlan != fromResult {
		t.Fatalf("normalized forms differ:\n%s\nvs\n%s", fromPlan, fromResult)
	}
	if !strings.Contains(fromPlan, `"actions"`) {
		t.Fatalf("normalized plan:\n%s", fromPlan)
	}
}

func TestDriftNormalize(t *testing.T) {
	dir := t.TempDir()
	normalize := func(name, doc string) string {
		t.Helper()
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		out, _, err := runCLI(t, "drift", "-normalize", path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return out
	}

	// The session audit's bare arrays, the engine report's {"roles"}
	// wrappers and the {"sameUser":{"groups"}} form all normalise to the
	// same canonical bytes, whatever the member and group order.
	want := `{"sameUserGroups":[["R1","R2"],["R3","R4"]],"samePermissionGroups":[["R5","R6"]]}` + "\n"
	shapes := map[string]string{
		"bare":     `{"sameUserGroups":[["R4","R3"],["R2","R1"]],"samePermissionGroups":[["R6","R5"]]}`,
		"wrapped":  `{"sameUserGroups":[{"roles":["R1","R2"]},{"roles":["R3","R4"]}],"samePermissionGroups":[{"roles":["R5","R6"]}]}`,
		"sameUser": `{"sameUser":{"groups":[["R3","R4"],["R1","R2"]]},"samePermission":{"groups":[{"roles":["R5","R6"]}]}}`,
	}
	for name, doc := range shapes {
		if got := normalize(name, doc); got != want {
			t.Errorf("%s: normalized to\n%s want\n%s", name, got, want)
		}
	}

	// Null and absent lists normalise to [], never null.
	empty := `{"sameUserGroups":[],"samePermissionGroups":[]}` + "\n"
	for name, doc := range map[string]string{
		"absent":       `{}`,
		"null":         `{"sameUserGroups":null,"samePermissionGroups":null}`,
		"null-wrapped": `{"sameUser":{"groups":null},"samePermission":{}}`,
	} {
		if got := normalize(name, doc); got != empty {
			t.Errorf("%s: normalized to\n%s want\n%s", name, got, empty)
		}
	}
}
