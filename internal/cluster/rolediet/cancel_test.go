package rolediet

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// slowRows returns a dense workload whose co-occurrence pass takes long
// enough that a mid-run cancel lands reliably.
func slowRows(t *testing.T) *matrix.CSR {
	t.Helper()
	m, err := gen.Matrix(gen.MatrixParams{Rows: 2000, Cols: 1024, Density: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return m.Rows
}

func waitCanceled(t *testing.T, name string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s = %v, want context.Canceled", name, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not return within 30s of cancellation", name)
	}
}

func TestGroupsContextAlreadyCanceled(t *testing.T) {
	m, err := gen.Matrix(gen.MatrixParams{Rows: 8, Cols: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, k := range []int{0, 2} {
		if _, err := Run(ctx, m.Rows, Options{Threshold: k}); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run(threshold=%d) on canceled ctx = %v, want context.Canceled", k, err)
		}
	}
}

func TestGroupsContextCanceledMidRun(t *testing.T) {
	rows := slowRows(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Millisecond, cancel)

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, rows, Options{Threshold: 2})
		done <- err
	}()
	waitCanceled(t, "Run", done)
}

// TestGroupsCSRContextCanceledMidRun cancels the general co-occurrence
// path at threshold 0, with the exact hash pass disabled.
func TestGroupsCSRContextCanceledMidRun(t *testing.T) {
	csr := slowRows(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Millisecond, cancel)

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, csr, Options{DisableExactHashFastPath: true})
		done <- err
	}()
	waitCanceled(t, "Run without the hash pass", done)
}

func TestGroupsParallelContextCanceledMidRun(t *testing.T) {
	rows := slowRows(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Millisecond, cancel)

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, rows, Options{Threshold: 2, Workers: 4})
		done <- err
	}()
	waitCanceled(t, "Run with 4 workers", done)
}

func TestGroupsContextBackgroundMatchesGroups(t *testing.T) {
	m, err := gen.Matrix(gen.MatrixParams{Rows: 300, Cols: 128, ClusterProportion: 0.4, MaxClusterSize: 5, SimilarNoise: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	packed := bitmat.FromCSR(m.Rows)
	for _, k := range []int{0, 2} {
		plain, err := GroupsMat(packed, Options{Threshold: k})
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := Run(context.Background(), m.Rows, Options{Threshold: k})
		if err != nil {
			t.Fatal(err)
		}
		if !groupsEqual(plain.Groups, ctxed.Groups) {
			t.Fatalf("threshold %d: GroupsMat %v != Run %v", k, plain.Groups, ctxed.Groups)
		}
	}
}
