package rolediet

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/gen"
)

// reuseCases are the option sets a reused workspace must serve: the
// exact hash pass, the co-occurrence pass at threshold 0, and two
// thresholds.
var reuseCases = []Options{
	{},
	{DisableExactHashFastPath: true},
	{Threshold: 1},
	{Threshold: 2},
}

func matrix(t *testing.T, p gen.MatrixParams) *gen.GeneratedMatrix {
	t.Helper()
	m, err := gen.Matrix(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameResult fails unless got has want's groups and PairsExamined.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !groupsEqual(got.Groups, want.Groups) || got.PairsExamined != want.PairsExamined {
		t.Fatalf("%s: %d groups, %d pairs examined; a fresh run gives %d groups, %d pairs",
			what, len(got.Groups), got.PairsExamined, len(want.Groups), want.PairsExamined)
	}
}

// TestWorkspaceReuseMatchesFreshRuns runs a large, a small and the
// large matrix again on one workspace, at workers 1, 2 and 4: each run
// must report the groups and PairsExamined of a run on a fresh
// workspace, whatever the previous run left in its arrays.
func TestWorkspaceReuseMatchesFreshRuns(t *testing.T) {
	large := matrix(t, gen.MatrixParams{Rows: 500, Cols: 300, ClusterProportion: 0.4, MaxClusterSize: 5, SimilarNoise: 1, Seed: 3})
	small := matrix(t, gen.MatrixParams{Rows: 40, Cols: 60, ClusterProportion: 0.5, MaxClusterSize: 4, SimilarNoise: 1, Seed: 4})
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4} {
		for _, opts := range reuseCases {
			opts.Workers = workers
			ws := new(workspace)
			for i, m := range []*gen.GeneratedMatrix{large, small, large} {
				want, err := new(workspace).run(ctx, m.Cols, m.Rows, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ws.run(ctx, m.Cols, m.Rows, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%+v, run %d of large, small, large", opts, i), got, want)
			}
		}
	}
}

// TestRunAfterCancelMatchesFreshRun cancels a Run part way through its
// co-occurrence pass, which leaves counts in its workspace, and then
// Runs the same matrix: the pool must not hand the cancelled run's
// workspace on, so the second Run matches a fresh one, at workers 1, 2
// and 4.
func TestRunAfterCancelMatchesFreshRun(t *testing.T) {
	m := matrix(t, gen.MatrixParams{Rows: 600, Cols: 512, Density: 0.2, Seed: 12})
	for _, workers := range []int{1, 2, 4} {
		for _, opts := range reuseCases[1:] {
			opts.Workers = workers
			want, err := new(workspace).run(context.Background(), m.Cols, m.Rows, opts)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancelled := opts
			cancelled.Progress = func(done, total int) { cancel() }
			_, err = Run(ctx, m.Cols, m.Rows, cancelled)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%+v: cancelled Run = %v, want context.Canceled", opts, err)
			}

			got, err := Run(context.Background(), m.Cols, m.Rows, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%+v, after a cancelled run", opts), got, want)
		}
	}
}
