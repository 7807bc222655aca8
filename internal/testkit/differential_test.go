package testkit

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
)

// failureDir is where shrunk counterexamples land, relative to this
// package (so internal/testkit/testdata/failures/ in the repo).
var failureDir = filepath.Join("testdata", "failures")

// TestDifferentialSweep is the tentpole check: every backend against
// the brute-force oracle over the full seeded corpus sweep. Exact
// backends must match the oracle partition exactly; approximate ones
// must meet their recall floors with zero false pairs. Any failure
// prints the reproducing generator seed + parameters and dumps a
// shrunk counterexample for offline replay.
//
// The short/default sweep (24 corpora × 6 backends) runs in seconds.
// Setting TESTKIT_FULL=1 appends organisation-shaped corpora
// (thousands of roles) — that is the scheduled CI job, not something
// `go test ./...` should pay for.
func TestDifferentialSweep(t *testing.T) {
	full := os.Getenv("TESTKIT_FULL") == "1" && !testing.Short()
	corpora := Corpora(full)
	if len(corpora) < 20 {
		t.Fatalf("sweep has %d corpora, want >= 20", len(corpora))
	}
	backends := Backends()
	for _, c := range corpora {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			failures, err := RunCorpus(ctx, c, backends)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range failures {
				t.Error(f.Error())
				b := BackendByName(f.Backend)
				rows, rerr := c.Rows()
				if b == nil || rerr != nil {
					continue
				}
				path, derr := ShrinkAndDump(ctx, failureDir, *b, c, rows, f.Detail)
				if derr != nil {
					t.Logf("shrink/dump failed: %v", derr)
					continue
				}
				t.Logf("shrunk counterexample written to %s (replay: see testdata/README.md)", path)
			}
		})
	}
}

// TestOracleMatchesPlantedClusters validates the oracle itself against
// the generator's ground truth: with SimilarNoise == 0 the planted
// clusters are the only groups of identical rows, so the oracle
// partition at threshold 0 must equal Planted exactly.
func TestOracleMatchesPlantedClusters(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g, err := gen.Matrix(gen.MatrixParams{
			Rows: 120, Cols: 96, ClusterProportion: 0.3,
			MaxClusterSize: 6, Density: 0.08, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle := Oracle(vectors(g.Rows), 0)
		if !SamePartition(Normalize(g.Planted), oracle) {
			t.Errorf("seed %d: oracle %s != planted %s",
				seed, FormatPartition(oracle), FormatPartition(g.Planted))
		}
	}
}

// TestPairStats pins the recall/false-pair arithmetic on hand-built
// partitions.
func TestPairStats(t *testing.T) {
	oracle := [][]int{{0, 1, 2}, {4, 5}}
	tests := []struct {
		name       string
		got        [][]int
		recall     float64
		falsePairs int
	}{
		{"perfect", [][]int{{0, 1, 2}, {4, 5}}, 1, 0},
		{"missed group", [][]int{{0, 1, 2}}, 0.75, 0},
		{"split group", [][]int{{0, 1}, {4, 5}}, 0.5, 0},
		{"false merge", [][]int{{0, 1, 2, 3}, {4, 5}}, 1, 3},
		{"empty", nil, 0, 0},
	}
	for _, tc := range tests {
		recall, fp := PairStats(oracle, tc.got)
		if recall != tc.recall || fp != tc.falsePairs {
			t.Errorf("%s: got recall=%v falsePairs=%d, want %v/%d",
				tc.name, recall, fp, tc.recall, tc.falsePairs)
		}
	}
	if r, fp := PairStats(nil, [][]int{{1, 2}}); r != 1 || fp != 1 {
		t.Errorf("empty oracle: recall=%v falsePairs=%d, want 1/1", r, fp)
	}
}
