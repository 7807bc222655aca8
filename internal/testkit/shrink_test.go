package testkit

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cluster/rolediet"
	"repro/internal/gen"
)

// buggyBackend simulates a realistic defect: it runs the real rolediet
// algorithm but silently drops the last group from the result — the
// kind of off-by-one truncation a refactor could introduce.
func buggyBackend() Backend {
	return Backend{
		Name:  "buggy-drop-last-group",
		Exact: true,
		Run: func(ctx context.Context, rows []*bitvec.Vector, threshold int) ([][]int, error) {
			c, err := rowsToCSR(rows)
			if err != nil {
				return nil, err
			}
			res, err := rolediet.Run(ctx, c, rolediet.Options{Threshold: threshold})
			if err != nil {
				return nil, err
			}
			groups := Normalize(res.Groups)
			if len(groups) > 0 {
				groups = groups[:len(groups)-1]
			}
			return groups, nil
		},
	}
}

// TestShrinkerMinimizesCounterexample plants a fault, lets the
// differential check catch it, and verifies the shrinker reduces the
// 150-row corpus to the minimal failing matrix: with the
// drop-last-group fault at threshold 0 that is exactly one identical
// pair — removing either row (or clearing any single bit) makes the
// failure vanish, so a 1-minimal shrink cannot stop any earlier.
func TestShrinkerMinimizesCounterexample(t *testing.T) {
	ctx := context.Background()
	c := Corpus{
		Name: "shrink-input",
		Params: gen.MatrixParams{
			Rows: 150, Cols: 128, ClusterProportion: 0.2,
			MaxClusterSize: 10, Density: 0.05, Seed: 5,
		},
		Threshold: 0,
	}
	rows, err := c.Rows()
	if err != nil {
		t.Fatal(err)
	}
	bug := buggyBackend()
	oracle := Oracle(rows, c.Threshold)
	if CheckBackend(ctx, bug, rows, c.Threshold, oracle) == "" {
		t.Fatal("planted fault not detected on the full corpus")
	}

	failing := func(candidate []*bitvec.Vector) bool {
		if len(candidate) == 0 {
			return false
		}
		return CheckBackend(ctx, bug, candidate, c.Threshold, Oracle(candidate, c.Threshold)) != ""
	}
	shrunk := Shrink(ctx, rows, failing)
	if !failing(shrunk) {
		t.Fatal("shrunk matrix no longer fails")
	}
	if len(shrunk) != 2 {
		t.Fatalf("shrunk to %d rows, want the minimal 2", len(shrunk))
	}
	if !shrunk[0].Equal(shrunk[1]) {
		t.Errorf("minimal counterexample rows differ: %s vs %s",
			shrunk[0].String(), shrunk[1].String())
	}
}

// TestShrinkAndDumpRoundTrip exercises the dump → load → replay path on
// a shrunk counterexample written to a temp dir.
func TestShrinkAndDumpRoundTrip(t *testing.T) {
	ctx := context.Background()
	c := Corpus{
		Name: "dump-input",
		Params: gen.MatrixParams{
			Rows: 60, Cols: 64, ClusterProportion: 0.3,
			MaxClusterSize: 4, Density: 0.08, Seed: 9,
		},
		Threshold: 0,
	}
	rows, err := c.Rows()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := ShrinkAndDump(ctx, dir, buggyBackend(), c, rows, "planted fault for round-trip test")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("case written to %s, want directory %s", path, dir)
	}
	loaded, err := LoadCase(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Backend != "buggy-drop-last-group" || loaded.Threshold != c.Threshold {
		t.Errorf("case header %s/k=%d does not match run", loaded.Backend, loaded.Threshold)
	}
	if loaded.GenParams == nil || loaded.GenParams.Seed != c.Params.Seed {
		t.Errorf("case lost the reproducing generator seed: %+v", loaded.GenParams)
	}
	vecs, err := loaded.Vectors()
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) == 0 || len(vecs) >= len(rows) {
		t.Errorf("shrunk case has %d rows, want 0 < n < %d", len(vecs), len(rows))
	}
	// The buggy backend is not in the registry, so replay must refuse
	// rather than silently pass.
	err = ReplayCase(ctx, loaded)
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("replay of unregistered backend: got %v, want unknown-backend error", err)
	}
}

// TestReplayCommittedCases replays every case committed under
// testdata/cases/. These are regression counterexamples: once a real
// disagreement is fixed, its shrunk case moves from testdata/failures/
// to testdata/cases/ and this test keeps it fixed forever.
func TestReplayCommittedCases(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "cases", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no committed cases")
	}
	ctx := context.Background()
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			c, err := LoadCase(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ReplayCase(ctx, c); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestShrinkHonorsCancellation: with a cancelled context the shrinker
// must return immediately with what it has — the (still failing) input
// — instead of exploring candidates. This is the mechanism that bounds
// ShrinkAndDump on organisation-shaped corpora, where every predicate
// evaluation re-clusters thousands of rows.
func TestShrinkHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows := make([]*bitvec.Vector, 64)
	for i := range rows {
		rows[i] = bitvec.FromIndices(8, []int{0})
	}
	evals := 0
	out := Shrink(ctx, rows, func(c []*bitvec.Vector) bool {
		evals++
		return len(c) > 0
	})
	// One evaluation establishes the input fails; the cancelled context
	// then stops phase 1 before any candidate is tried.
	if evals != 1 {
		t.Errorf("cancelled shrink evaluated %d candidates, want 1 (the input itself)", evals)
	}
	if len(out) != len(rows) {
		t.Errorf("cancelled shrink returned %d rows, want the untouched %d", len(out), len(rows))
	}
}

// TestShrinkKeepsPassingInput documents the contract for a predicate
// that never fails: Shrink returns the input unchanged.
func TestShrinkKeepsPassingInput(t *testing.T) {
	rows := []*bitvec.Vector{
		bitvec.FromIndices(8, []int{0}),
		bitvec.FromIndices(8, []int{1}),
	}
	out := Shrink(context.Background(), rows, func([]*bitvec.Vector) bool { return false })
	if len(out) != len(rows) {
		t.Fatalf("Shrink dropped rows from a passing input: %d != %d", len(out), len(rows))
	}
	for i := range rows {
		if !out[i].Equal(rows[i]) {
			t.Errorf("row %d mutated", i)
		}
	}
}
