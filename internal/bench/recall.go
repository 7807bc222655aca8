package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster/bitlsh"
	"repro/internal/cluster/hnsw"
	"repro/internal/core"
	"repro/internal/gen"
)

// RecallConfig parameterises the approximate-methods quality sweep: one
// matrix, a range of effort knobs, recall and duration per setting.
// This quantifies the paper's §IV-A remark that approximate clustering
// "may miss some entries within clusters" and relies on periodic re-runs.
type RecallConfig struct {
	// Rows and Cols shape the matrix (defaults 4000 x 1000).
	Rows, Cols int
	// EfSearch values swept for HNSW; defaults to 16..256.
	EfSearch []int
	// Tables values swept for bit-sampling LSH; defaults to 2..16.
	Tables []int
	// Threshold for grouping; default 0 (exact duplicates).
	Threshold int
	// Seed drives the generator.
	Seed int64
}

func (c RecallConfig) withDefaults() RecallConfig {
	if c.Rows == 0 {
		c.Rows = 4000
	}
	if c.Cols == 0 {
		c.Cols = 1000
	}
	if len(c.EfSearch) == 0 {
		c.EfSearch = []int{16, 32, 64, 128, 256}
	}
	if len(c.Tables) == 0 {
		c.Tables = []int{2, 4, 8, 16}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RecallPoint is one parameter setting's outcome.
type RecallPoint struct {
	Method   string        `json:"method"`
	Setting  string        `json:"setting"`
	Duration time.Duration `json:"durationNanos"`
	Recall   float64       `json:"recall"`
}

// RecallResult is the full quality sweep.
type RecallResult struct {
	Config  RecallConfig  `json:"config"`
	Planted int           `json:"planted"`
	Points  []RecallPoint `json:"points"`
}

// RunRecall measures group recall (fraction of planted cluster roles
// recovered) and duration for HNSW across EfSearch and LSH across
// Tables, on one generated matrix.
func RunRecall(cfg RecallConfig) (*RecallResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("bench: negative threshold %d", cfg.Threshold)
	}
	g, err := gen.Matrix(gen.MatrixParams{
		Rows:              cfg.Rows,
		Cols:              cfg.Cols,
		ClusterProportion: 0.2,
		MaxClusterSize:    10,
		Seed:              cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	planted := 0
	for _, grp := range g.Planted {
		planted += len(grp)
	}
	res := &RecallResult{Config: cfg, Planted: planted}

	measure := func(method, setting string, run func() (found int, err error)) error {
		start := time.Now()
		found, err := run()
		if err != nil {
			return fmt.Errorf("%s %s: %w", method, setting, err)
		}
		recall := 1.0
		if planted > 0 {
			recall = float64(found) / float64(planted)
		}
		res.Points = append(res.Points, RecallPoint{
			Method:   method,
			Setting:  setting,
			Duration: time.Since(start),
			Recall:   recall,
		})
		return nil
	}

	for _, ef := range cfg.EfSearch {
		ef := ef
		err := measure("hnsw", fmt.Sprintf("ef=%d", ef), func() (int, error) {
			groups, err := core.FindRoleGroups(context.Background(), g.Rows, core.GroupOptions{
				Method:       core.MethodHNSW,
				Threshold:    cfg.Threshold,
				HNSW:         hnsw.Config{Seed: cfg.Seed},
				HNSWSearchEf: ef,
			})
			if err != nil {
				return 0, err
			}
			return countMembers(groups), nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, tables := range cfg.Tables {
		tables := tables
		err := measure("lsh", fmt.Sprintf("tables=%d", tables), func() (int, error) {
			groups, err := core.FindRoleGroups(context.Background(), g.Rows, core.GroupOptions{
				Method:    core.MethodLSH,
				Threshold: cfg.Threshold,
				LSH:       bitlsh.Config{Tables: tables, Seed: cfg.Seed},
			})
			if err != nil {
				return 0, err
			}
			return countMembers(groups), nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func countMembers(groups [][]int) int {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	return n
}

// Table renders the quality sweep.
func (r *RecallResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recall sweep: %dx%d matrix, threshold %d, %d planted roles\n",
		r.Config.Rows, r.Config.Cols, r.Config.Threshold, r.Planted)
	fmt.Fprintf(&b, "%-8s %-12s %14s %8s\n", "method", "setting", "duration", "recall")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8s %-12s %14s %7.3f\n",
			p.Method, p.Setting, p.Duration.Round(time.Microsecond), p.Recall)
	}
	return b.String()
}
