package core_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

// progressLog records every Progress callback for later assertions.
type progressLog struct {
	stages    []string
	fractions []float64
}

func (p *progressLog) hook(stage string, fraction float64) {
	p.stages = append(p.stages, stage)
	p.fractions = append(p.fractions, fraction)
}

// check asserts the recorded sequence is within [0,1], never
// decreasing, and terminates at exactly 1 in the done stage.
func (p *progressLog) check(t *testing.T) {
	t.Helper()
	if len(p.fractions) == 0 {
		t.Fatal("no progress reported")
	}
	last := -1.0
	for i, f := range p.fractions {
		if f < 0 || f > 1 {
			t.Fatalf("fraction %v out of [0,1] at step %d (stage %s)", f, i, p.stages[i])
		}
		if f < last {
			t.Fatalf("progress regressed %v -> %v at step %d (stage %s)", last, f, i, p.stages[i])
		}
		last = f
	}
	if last != 1 {
		t.Fatalf("final fraction = %v, want 1", last)
	}
	if final := p.stages[len(p.stages)-1]; final != core.StageDone {
		t.Fatalf("final stage = %q, want %q", final, core.StageDone)
	}
}

// TestAnalyzeProgress verifies the analysis emits monotonically
// non-decreasing progress that reaches 1.0, for the backends that
// report inside their grouping loops as well as the stage-boundary-only
// ones, and for Role Diet's parallel lane.
func TestAnalyzeProgress(t *testing.T) {
	ds := randomDataset(7, 150, 90, 70)
	for _, method := range []core.Method{core.MethodRoleDiet, core.MethodHNSW, core.MethodDBSCAN} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			var dense progressLog
			_, err := core.AnalyzeContext(context.Background(), ds, core.Options{
				Method:           method,
				SimilarThreshold: 2,
				Progress:         dense.hook,
			})
			if err != nil {
				t.Fatal(err)
			}
			dense.check(t)
		})
	}
	t.Run("rolediet-workers", func(t *testing.T) {
		var log progressLog
		_, err := core.AnalyzeContext(context.Background(), ds, core.Options{
			SimilarThreshold: 2,
			Workers:          4,
			Progress:         log.hook,
		})
		if err != nil {
			t.Fatal(err)
		}
		log.check(t)
	})
}

// TestAnalyzeProgressSkipPaths verifies the skip short-circuits still
// finish at 1.0 rather than stalling mid-scale.
func TestAnalyzeProgressSkipPaths(t *testing.T) {
	ds := randomDataset(11, 60, 40, 30)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"skip groups", core.Options{SkipGroups: true}},
		{"skip similar", core.Options{SkipSimilar: true, SimilarThreshold: 1}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var log progressLog
			opts := tc.opts
			opts.Progress = log.hook
			if _, err := core.AnalyzeContext(context.Background(), ds, opts); err != nil {
				t.Fatal(err)
			}
			log.check(t)
		})
	}
}

// TestOptionsJSONRoundTrip pins the shared wire schema: marshal ->
// unmarshal reproduces the options, with methods in string form.
func TestOptionsJSONRoundTrip(t *testing.T) {
	in := core.Options{
		Method:           core.MethodHNSW,
		SimilarThreshold: 3,
		SkipSimilar:      true,
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["method"] != "hnsw" {
		t.Fatalf("method serialised as %v, want \"hnsw\"", m["method"])
	}
	var out core.Options
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed options: %+v -> %+v", in, out)
	}

	gin := core.GroupOptions{Method: core.MethodLSH, Threshold: 2, Workers: 3}
	graw, err := json.Marshal(gin)
	if err != nil {
		t.Fatal(err)
	}
	var gout core.GroupOptions
	if err := json.Unmarshal(graw, &gout); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gin, gout) {
		t.Fatalf("group round trip changed options: %+v -> %+v", gin, gout)
	}
}

// TestOptionsJSONRejects pins the validation side of the schema:
// unknown method names and negative thresholds fail to decode.
func TestOptionsJSONRejects(t *testing.T) {
	for _, raw := range []string{
		`{"method":"kmeans"}`,
		`{"threshold":-1}`,
	} {
		var o core.Options
		if err := json.Unmarshal([]byte(raw), &o); err == nil {
			t.Errorf("Options accepted %s", raw)
		}
		var g core.GroupOptions
		if err := json.Unmarshal([]byte(raw), &g); err == nil {
			t.Errorf("GroupOptions accepted %s", raw)
		}
	}
	// The zero method serialises to the empty string and decodes back.
	var o core.Options
	if err := json.Unmarshal([]byte(`{"method":""}`), &o); err != nil {
		t.Fatalf("empty method rejected: %v", err)
	}
	if o.Method != 0 {
		t.Fatalf("empty method decoded to %v", o.Method)
	}
}
