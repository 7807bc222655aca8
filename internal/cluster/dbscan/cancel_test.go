package dbscan

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/gen"
)

func TestRunContextAlreadyCanceled(t *testing.T) {
	m, err := gen.Matrix(gen.MatrixParams{Rows: 8, Cols: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, bitmat.FromCSR(m.Rows), Config{Eps: 0.5, MinPts: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestRunContextCanceledMidRun(t *testing.T) {
	// A workload whose full O(n²) scan takes far longer than the cancel
	// delay, so a nil error would mean the cancellation was ignored.
	m, err := gen.Matrix(gen.MatrixParams{Rows: 2500, Cols: 1024, Density: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Millisecond, cancel)

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, bitmat.FromCSR(m.Rows), Config{Eps: 2, MinPts: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return within 30s of cancellation")
	}
}

func TestRunFloatsContextCanceledMidRun(t *testing.T) {
	m, err := gen.Matrix(gen.MatrixParams{Rows: 1200, Cols: 1024, Density: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	floats := make([][]float64, m.Rows.Rows())
	for i := range floats {
		floats[i] = make([]float64, m.Rows.Cols())
		for _, j := range m.Rows.RowCols(i) {
			floats[i][j] = 1
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Millisecond, cancel)

	done := make(chan error, 1)
	go func() {
		_, err := RunFloats(ctx, floats, Config{Eps: 2, MinPts: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunFloats = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunFloats did not return within 30s of cancellation")
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	m, err := gen.Matrix(gen.MatrixParams{Rows: 200, Cols: 64, ClusterProportion: 0.3, MaxClusterSize: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A live (never cancelled) context must not change the labelling.
	cfg := Config{Eps: 1e-9, MinPts: 2}
	plain, err := Run(context.Background(), bitmat.FromCSR(m.Rows), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed, err := Run(ctx, bitmat.FromCSR(m.Rows), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumClusters != ctxed.NumClusters {
		t.Fatalf("cluster counts differ: %d vs %d", plain.NumClusters, ctxed.NumClusters)
	}
	for i := range plain.Labels {
		if plain.Labels[i] != ctxed.Labels[i] {
			t.Fatalf("label %d differs: %d vs %d", i, plain.Labels[i], ctxed.Labels[i])
		}
	}
}
