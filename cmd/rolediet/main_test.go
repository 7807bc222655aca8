package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rbac"
)

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err := run(args, &out, &errBuf)
	return out.String(), errBuf.String(), err
}

func TestNoArgs(t *testing.T) {
	_, stderr, err := runCLI(t)
	if err == nil {
		t.Fatal("no args accepted")
	}
	if !strings.Contains(stderr, "usage:") {
		t.Fatalf("usage not printed: %q", stderr)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if _, _, err := runCLI(t, "frobnicate"); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestHelp(t *testing.T) {
	out, _, err := runCLI(t, "help")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"generate", "analyze", "consolidate", "sweep", "org"} {
		if !strings.Contains(out, want) {
			t.Fatalf("help missing %q:\n%s", want, out)
		}
	}
}

func writeFigure1(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig1.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rbac.Figure1().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGenerateMatrixAndAnalyze(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.json")
	stdout, _, err := runCLI(t, "generate", "-out", out, "-roles", "60", "-users", "40", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "60 roles") {
		t.Fatalf("generate output: %q", stdout)
	}
	stdout, _, err = runCLI(t, "analyze", "-data", out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "roles sharing the same users") {
		t.Fatalf("analyze output:\n%s", stdout)
	}
}

func TestGenerateOrg(t *testing.T) {
	out := filepath.Join(t.TempDir(), "org.json")
	stdout, _, err := runCLI(t, "generate", "-org", "-scale", "200", "-out", out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "wrote") {
		t.Fatalf("generate output: %q", stdout)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeFormats checks -format on every command that takes it:
// json prints one JSON document, text prints something else, and any
// other value is rejected right after flag parsing — before the dataset
// is read, with nothing printed and no -out written.
func TestAnalyzeFormats(t *testing.T) {
	path := writeFigure1(t)
	for _, cmd := range []string{"analyze", "suggest", "optimize"} {
		t.Run(cmd, func(t *testing.T) {
			stdout, _, err := runCLI(t, cmd, "-data", path, "-format", "json")
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid([]byte(stdout)) {
				t.Fatalf("-format json output is not JSON:\n%s", stdout)
			}
			stdout, _, err = runCLI(t, cmd, "-data", path, "-format", "text")
			if err != nil {
				t.Fatal(err)
			}
			if stdout == "" || json.Valid([]byte(stdout)) {
				t.Fatalf("-format text output:\n%s", stdout)
			}

			args := []string{cmd, "-data", path, "-format", "yaml"}
			out := filepath.Join(t.TempDir(), "out.json")
			if cmd == "optimize" {
				args = append(args, "-out", out)
			}
			stdout, _, err = runCLI(t, args...)
			if err == nil || !strings.Contains(err.Error(), `unknown format "yaml"`) {
				t.Fatalf("-format yaml: err = %v", err)
			}
			if stdout != "" {
				t.Fatalf("-format yaml printed output:\n%s", stdout)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("-format yaml wrote -out: stat err = %v", err)
			}
			_, _, err = runCLI(t, cmd, "-data", "/nonexistent.json", "-format", "yaml")
			if err == nil || !strings.Contains(err.Error(), "unknown format") {
				t.Fatalf("-format checked after loading the dataset: err = %v", err)
			}
		})
	}
	if _, _, err := runCLI(t, "analyze"); err == nil {
		t.Fatal("missing -data accepted")
	}
	if _, _, err := runCLI(t, "analyze", "-data", "/nonexistent.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	// lsh is a retired method: it fails as any unknown name does.
	for _, m := range []string{"kmeans", "lsh"} {
		if _, _, err := runCLI(t, "analyze", "-data", path, "-method", m); err == nil {
			t.Fatalf("unknown method %q accepted", m)
		}
	}
}

func TestAnalyzeAllMethods(t *testing.T) {
	path := writeFigure1(t)
	for _, m := range []string{"rolediet", "dbscan", "hnsw"} {
		stdout, _, err := runCLI(t, "analyze", "-data", path, "-method", m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !strings.Contains(stdout, "method="+m) {
			t.Fatalf("%s output:\n%s", m, stdout)
		}
	}
}

func TestConsolidateCommand(t *testing.T) {
	path := writeFigure1(t)
	out := filepath.Join(t.TempDir(), "after.json")
	stdout, _, err := runCLI(t, "consolidate", "-data", path, "-out", out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "safety verified") {
		t.Fatalf("consolidate output: %q", stdout)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	after, err := rbac.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if after.NumRoles() != 4 {
		t.Fatalf("consolidated roles = %d, want 4", after.NumRoles())
	}
	if _, _, err := runCLI(t, "consolidate"); err == nil {
		t.Fatal("missing -data accepted")
	}
}

func TestSweepCommand(t *testing.T) {
	stdout, stderr, err := runCLI(t, "sweep",
		"-axis", "roles", "-fixed", "50", "-values", "30,60",
		"-runs", "1", "-methods", "rolediet,dbscan")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "rolediet") || !strings.Contains(stdout, "dbscan") {
		t.Fatalf("sweep table:\n%s", stdout)
	}
	if !strings.Contains(stderr, "method=rolediet") {
		t.Fatalf("sweep progress:\n%s", stderr)
	}
	// CSV mode.
	stdout, _, err = runCLI(t, "sweep",
		"-axis", "users", "-fixed", "40", "-values", "30",
		"-runs", "1", "-methods", "rolediet", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout, "users,rolediet_mean_s") {
		t.Fatalf("sweep csv:\n%s", stdout)
	}
	// Errors.
	if _, _, err := runCLI(t, "sweep", "-axis", "zz"); err == nil {
		t.Fatal("bad axis accepted")
	}
	if _, _, err := runCLI(t, "sweep", "-values", "a,b"); err == nil {
		t.Fatal("bad values accepted")
	}
	if _, _, err := runCLI(t, "sweep", "-methods", "kmeans"); err == nil {
		t.Fatal("bad method accepted")
	}
}

func TestOrgCommand(t *testing.T) {
	stdout, _, err := runCLI(t, "org", "-scale", "100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "organisation-scale audit") ||
		strings.Contains(stdout, "MISMATCH") {
		t.Fatalf("org output:\n%s", stdout)
	}
}

func TestAnalyzeWorkersFlag(t *testing.T) {
	path := writeFigure1(t)
	serial, _, err := runCLI(t, "analyze", "-data", path, "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := runCLI(t, "analyze", "-data", path, "-workers", "4", "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	stripTimings := func(raw string) map[string]any {
		var m map[string]any
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			t.Fatal(err)
		}
		for k := range m {
			if strings.Contains(k, "Duration") {
				delete(m, k)
			}
		}
		return m
	}
	if a, b := stripTimings(serial), stripTimings(par); !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel report differs from serial:\n%v\n---\n%v", a, b)
	}
	if _, _, err := runCLI(t, "analyze", "-data", path, "-workers", "-1"); err == nil {
		t.Fatal("negative -workers accepted")
	}
	// The -options JSON shares the server schema and wins over the flag,
	// so a negative value there must be rejected by the decoder too.
	if _, _, err := runCLI(t, "analyze", "-data", path, "-options", `{"workers": -2}`); err == nil {
		t.Fatal("negative workers in -options accepted")
	}
	if _, _, err := runCLI(t, "consolidate", "-data", path, "-workers", "-1"); err == nil {
		t.Fatal("consolidate negative -workers accepted")
	}
}
