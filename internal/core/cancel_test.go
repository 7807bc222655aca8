package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/rbac"
)

// randomDataset builds a dataset whose role/user assignment matrix is
// random with the given density — enough volume that a full analysis
// outlives the cancel delay in the mid-run tests below.
func randomDataset(t *testing.T, roles, users int, density float64, seed int64) *rbac.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := rbac.NewDataset()
	userIDs := make([]rbac.UserID, users)
	for u := 0; u < users; u++ {
		userIDs[u] = rbac.UserID(fmt.Sprintf("u%d", u))
		d.EnsureUser(userIDs[u])
	}
	for r := 0; r < roles; r++ {
		id := rbac.RoleID(fmt.Sprintf("r%d", r))
		d.EnsureRole(id)
		for u := 0; u < users; u++ {
			if rng.Float64() < density {
				if err := d.AssignUser(id, userIDs[u]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return d
}

func TestAnalyzeContextAlreadyCanceled(t *testing.T) {
	d := randomDataset(t, 20, 16, 0.3, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeContext(ctx, d, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeContext on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestAnalyzeContextCanceledMidRun cancels a dense analysis shortly
// after it starts and requires context.Canceled back within a bounded
// time: the engine must abandon the O(n²) clustering, not finish it.
func TestAnalyzeContextCanceledMidRun(t *testing.T) {
	d := randomDataset(t, 900, 512, 0.3, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Millisecond, cancel)

	done := make(chan error, 1)
	go func() {
		_, err := AnalyzeContext(ctx, d, Options{Method: MethodDBSCANFloat64})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("AnalyzeContext = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("AnalyzeContext did not return within 30s of cancellation")
	}
}

// TestAnalyzeSparseContextCanceledMidRun is the sparse-row-lane twin of the
// test above: Role Diet's co-occurrence loops over the sparse snapshot
// must observe the cancel too.
func TestAnalyzeSparseContextCanceledMidRun(t *testing.T) {
	d := randomDataset(t, 4000, 1500, 0.05, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Millisecond, cancel)

	done := make(chan error, 1)
	go func() {
		_, err := AnalyzeContext(ctx, d, Options{SimilarThreshold: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("AnalyzeContext = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("AnalyzeContext did not return within 30s of cancellation")
	}
}

func TestAnalyzeContextBackgroundMatchesAnalyze(t *testing.T) {
	d := randomDataset(t, 60, 40, 0.2, 3)
	plain, err := Analyze(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := AnalyzeContext(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.SameUserGroups) != len(ctxed.SameUserGroups) ||
		len(plain.SimilarUserGroups) != len(ctxed.SimilarUserGroups) {
		t.Fatalf("reports differ: %+v vs %+v", plain, ctxed)
	}
}
