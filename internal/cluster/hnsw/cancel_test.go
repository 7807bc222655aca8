package hnsw

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/gen"
)

func TestBuildContextAlreadyCanceled(t *testing.T) {
	m, err := gen.Matrix(gen.MatrixParams{Rows: 16, Cols: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := build(ctx, bitmat.Pack(m.Cols, m.Rows), Config{}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("build on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestBuildContextCanceledMidRun(t *testing.T) {
	// Building an index over thousands of dense rows with the default
	// beam width takes far longer than the cancel delay, so a nil error
	// here would mean the insert loop ignored the cancellation.
	m, err := gen.Matrix(gen.MatrixParams{Rows: 3000, Cols: 512, Density: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	packed := bitmat.Pack(m.Cols, m.Rows)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Millisecond, cancel)

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, packed, Options{})
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

func TestBuildContextBackgroundMatchesBuild(t *testing.T) {
	m, err := gen.Matrix(gen.MatrixParams{Rows: 300, Cols: 64, ClusterProportion: 0.3, MaxClusterSize: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A live (never cancelled) context must not change the serial,
	// seeded build.
	plain, err := build(context.Background(), bitmat.Pack(m.Cols, m.Rows), Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed, err := build(ctx, bitmat.Pack(m.Cols, m.Rows), Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, plain, ctxed)
}
