package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestMineCommand(t *testing.T) {
	path := writeFigure1(t)
	out := filepath.Join(t.TempDir(), "mined.json")
	stdout, _, err := runCLI(t, "mine", "-data", path, "-out", out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "mined") ||
		!strings.Contains(stdout, "effective permissions verified unchanged") {
		t.Fatalf("mine output:\n%s", stdout)
	}
	// Distinct-rows strategy and errors.
	if _, _, err := runCLI(t, "mine", "-data", path, "-strategy", "distinct-rows"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, "mine", "-data", path, "-strategy", "magic"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, _, err := runCLI(t, "mine"); err == nil {
		t.Fatal("missing -data accepted")
	}
}

func TestSuggestCommand(t *testing.T) {
	path := writeFigure1(t)
	stdout, _, err := runCLI(t, "suggest", "-data", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "merge") {
		t.Fatalf("suggest output:\n%s", stdout)
	}
	stdout, _, err = runCLI(t, "suggest", "-data", path, "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, `"addedGrants"`) {
		t.Fatalf("suggest json:\n%s", stdout)
	}
	stdout, _, err = runCLI(t, "suggest", "-data", path, "-risk-free-only")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stdout, "+ ") {
		t.Fatalf("risk-free filter leaked risky suggestions:\n%s", stdout)
	}
	if _, _, err := runCLI(t, "suggest"); err == nil {
		t.Fatal("missing -data accepted")
	}
}

func TestDiffCommand(t *testing.T) {
	before := writeFigure1(t)
	afterPath := filepath.Join(t.TempDir(), "after.json")
	if _, _, err := runCLI(t, "consolidate", "-data", before, "-out", afterPath); err != nil {
		t.Fatal(err)
	}
	stdout, _, err := runCLI(t, "diff", "-before", before, "-after", afterPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "structural changes") ||
		!strings.Contains(stdout, "improved") {
		t.Fatalf("diff output:\n%s", stdout)
	}
	if _, _, err := runCLI(t, "diff", "-before", before); err == nil {
		t.Fatal("missing -after accepted")
	}
	if _, _, err := runCLI(t, "diff", "-before", "/none.json", "-after", before); err == nil {
		t.Fatal("missing before file accepted")
	}
}

func TestHelpListsNewSubcommands(t *testing.T) {
	out, _, err := runCLI(t, "help")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mine") || !strings.Contains(out, "suggest") {
		t.Fatalf("help missing new subcommands:\n%s", out)
	}
}

func TestDigestCommand(t *testing.T) {
	path := writeFigure1(t)
	stdout, _, err := runCLI(t, "digest", "-data", path)
	if err != nil {
		t.Fatal(err)
	}
	bare := strings.TrimSpace(stdout)
	if len(bare) != 64 {
		t.Fatalf("digest = %q, want 64 hex chars", bare)
	}
	// Deterministic: the same file digests identically, and the
	// prefixed form only adds the algorithm tag.
	again, _, err := runCLI(t, "digest", "-data", path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(again) != bare {
		t.Fatalf("digest not deterministic: %q vs %q", again, stdout)
	}
	prefixed, _, err := runCLI(t, "digest", "-data", path, "-prefixed")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(prefixed) != "sha256:"+bare {
		t.Fatalf("prefixed digest = %q", prefixed)
	}
	jsonOut, _, err := runCLI(t, "digest", "-data", path, "-json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonOut, bare) || !strings.Contains(jsonOut, `"roles"`) {
		t.Fatalf("digest json:\n%s", jsonOut)
	}
	if _, _, err := runCLI(t, "digest"); err == nil {
		t.Fatal("missing -data accepted")
	}
}
