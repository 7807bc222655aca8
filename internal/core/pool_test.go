package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/rbac"
)

// TestAnalyzeContextPooledMatchesSnapshot runs the one-shot
// AnalyzeContext, whose analyzers and Role Diet workspaces come from
// pools, from four goroutines at once on four datasets of different
// sizes, at workers 1 and 2: every report must equal the one a
// NewAnalyzer snapshot gives. A released analyzer keeps no ID slice or
// row of the dataset it analysed. Run it under -race.
func TestAnalyzeContextPooledMatchesSnapshot(t *testing.T) {
	const goroutines = 4
	datasets := make([]*rbac.Dataset, goroutines)
	want := make([]string, goroutines)
	for g := range datasets {
		p := gen.DefaultOrgParams().Scaled(400 >> g)
		p.Seed = int64(g + 1)
		ds, _, err := gen.Org(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewAnalyzer(ds).Analyze(Options{})
		if err != nil {
			t.Fatal(err)
		}
		datasets[g], want[g] = ds, reportJSON(t, rep)
	}

	a := new(Analyzer)
	users, roles, perms := datasets[0].IDs()
	a.reset(datasets[0], ids{users: users, roles: roles, perms: perms}, false)
	a.release()
	if a.ids.users != nil || a.ids.roles != nil || a.ids.perms != nil {
		t.Fatal("a released analyzer keeps the dataset's ID slices")
	}
	for _, s := range []side{a.ruam, a.rpam} {
		for i, row := range s.rows {
			if row != nil {
				t.Fatalf("a released analyzer keeps dataset row %d", i)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := range datasets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 6; n++ {
				rep, err := AnalyzeContext(context.Background(), datasets[g], Options{Workers: 1 + n%2})
				if err != nil {
					errs[g] = err
					return
				}
				r := *rep
				r.LinearScanDuration, r.SameGroupsDuration, r.SimilarGroupDuration = 0, 0, 0
				if got, err := json.Marshal(r); err != nil || string(got) != want[g] {
					errs[g] = fmt.Errorf("analysis %d differs from the snapshot's report (%v)", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
