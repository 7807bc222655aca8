package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// fakeSweep builds a deterministic result without running anything.
func fakeSweep() *SweepResult {
	mk := func(ms int) Stat {
		return Stat{Mean: time.Duration(ms) * time.Millisecond, Runs: 5}
	}
	return &SweepResult{
		Config: SweepConfig{
			Axis:    AxisRoles,
			Fixed:   1000,
			Values:  []int{1000, 2000, 4000},
			Methods: []core.Method{core.MethodRoleDiet, core.MethodDBSCAN, core.MethodHNSW},
		},
		Points: []SweepPoint{
			{X: 1000, Timings: map[string]Stat{"rolediet": mk(1), "dbscan": mk(30), "hnsw": mk(200)}},
			{X: 2000, Timings: map[string]Stat{"rolediet": mk(2), "dbscan": mk(90), "hnsw": mk(400)}},
			{X: 4000, Timings: map[string]Stat{"rolediet": mk(4), "dbscan": mk(320), "hnsw": mk(900)}},
		},
	}
}

func TestPlotRenders(t *testing.T) {
	p := fakeSweep().Plot(60, 12)
	for _, want := range []string{
		"duration vs roles",
		"legend: R=rolediet, D=dbscan, H=hnsw",
		"R", "D", "H",
		"1000", "4000",
	} {
		if !strings.Contains(p, want) {
			t.Fatalf("plot missing %q:\n%s", want, p)
		}
	}
	lines := strings.Split(strings.TrimRight(p, "\n"), "\n")
	// Header + height rows + axis + x labels + legend.
	if len(lines) != 1+12+1+1+1 {
		t.Fatalf("plot has %d lines:\n%s", len(lines), p)
	}
}

func TestPlotOrderingOnGrid(t *testing.T) {
	// The fastest method must appear strictly below the slowest on the
	// grid (log y axis grows upward): find the row index of R and H in
	// the first data column region.
	p := fakeSweep().Plot(60, 16)
	lines := strings.Split(p, "\n")
	rowOf := func(marker byte) int {
		for i, line := range lines {
			if strings.IndexByte(line, marker) >= 0 && i > 0 && i < 18 {
				return i
			}
		}
		return -1
	}
	rRow, hRow := rowOf('R'), rowOf('H')
	if rRow < 0 || hRow < 0 {
		t.Fatalf("markers not found:\n%s", p)
	}
	if hRow >= rRow {
		t.Fatalf("hnsw (slow) row %d not above rolediet (fast) row %d:\n%s", hRow, rRow, p)
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	empty := &SweepResult{Config: SweepConfig{Axis: AxisUsers}}
	if got := empty.Plot(40, 10); !strings.Contains(got, "no data") {
		t.Fatalf("empty plot = %q", got)
	}
	// Single point and zero durations must not panic or divide by zero.
	single := &SweepResult{
		Config: SweepConfig{
			Axis:    AxisUsers,
			Methods: []core.Method{core.MethodRoleDiet},
		},
		Points: []SweepPoint{
			{X: 500, Timings: map[string]Stat{"rolediet": {}}},
		},
	}
	if got := single.Plot(40, 10); !strings.Contains(got, "R") {
		t.Fatalf("single-point plot:\n%s", got)
	}
}

func TestPlotTinyDimensionsClamped(t *testing.T) {
	p := fakeSweep().Plot(1, 1)
	if len(p) == 0 {
		t.Fatal("clamped plot empty")
	}
}

func TestFullReportQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	cfg := QuickReportConfig()
	cfg.Values = []int{60, 120}
	cfg.Fixed = 80
	cfg.Runs = 1
	cfg.OrgScale = 200
	var progress int
	cfg.Progress = func(string) { progress++ }
	md, err := FullReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# Evaluation report",
		"Figure 2 — duration vs users",
		"Figure 3 — duration vs roles",
		"Organisation-scale audit",
		"match the planted ground truth exactly",
		"| rolediet |",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("report missing %q:\n%s", want, md)
		}
	}
	if progress == 0 {
		t.Fatal("no progress lines")
	}
}

func TestReportConfigPresets(t *testing.T) {
	q := QuickReportConfig().withDefaults()
	f := FullReportConfig().withDefaults()
	if q.Fixed >= f.Fixed {
		t.Fatal("quick preset not smaller than full")
	}
	if len(f.Methods) != 3 {
		t.Fatalf("full preset methods = %v", f.Methods)
	}
}

func TestRunRecallSmall(t *testing.T) {
	res, err := RunRecall(RecallConfig{
		Rows:     200,
		Cols:     100,
		EfSearch: []int{8, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Method != "hnsw" || p.Recall < 0 || p.Recall > 1 {
			t.Fatalf("bad point: %+v", p)
		}
	}
	// More effort must never *reduce* recall dramatically; check the
	// weak monotone property that the largest setting is at least as
	// good as the smallest minus tolerance.
	if pts := res.Points; pts[len(pts)-1].Recall+0.1 < pts[0].Recall {
		t.Fatalf("hnsw recall fell with more effort: %+v", pts)
	}
	table := res.Table()
	if !strings.Contains(table, "ef=64") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestRunRecallValidation(t *testing.T) {
	if _, err := RunRecall(RecallConfig{Threshold: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
}
