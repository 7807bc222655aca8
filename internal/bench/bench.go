// Package bench is the measurement harness behind the paper's
// evaluation (§IV): timing statistics over repeated runs, the Figure 2
// and Figure 3 parameter sweeps comparing the three group-finding
// methods, and the §IV-B organisation-scale audit table.
package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// Stat summarises repeated duration measurements.
type Stat struct {
	Mean time.Duration `json:"meanNanos"`
	Std  time.Duration `json:"stdNanos"`
	Runs int           `json:"runs"`
}

// String renders "mean ± std".
func (s Stat) String() string {
	return fmt.Sprintf("%v ± %v", s.Mean.Round(time.Microsecond), s.Std.Round(time.Microsecond))
}

// Measure times fn over the given number of runs, mirroring the paper's
// protocol of five repetitions with mean and standard deviation.
func Measure(runs int, fn func() error) (Stat, error) {
	if runs < 1 {
		return Stat{}, fmt.Errorf("bench: runs %d < 1", runs)
	}
	durations := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return Stat{}, err
		}
		durations = append(durations, time.Since(start))
	}
	var sum time.Duration
	for _, d := range durations {
		sum += d
	}
	mean := sum / time.Duration(runs)
	var varSum float64
	for _, d := range durations {
		diff := float64(d - mean)
		varSum += diff * diff
	}
	std := time.Duration(math.Sqrt(varSum / float64(runs)))
	return Stat{Mean: mean, Std: std, Runs: runs}, nil
}

// Axis selects which dimension a sweep varies.
type Axis int

// Sweep axes.
const (
	// AxisUsers varies the column count (Figure 2).
	AxisUsers Axis = iota + 1
	// AxisRoles varies the row count (Figure 3).
	AxisRoles
)

// String names the axis.
func (a Axis) String() string {
	switch a {
	case AxisUsers:
		return "users"
	case AxisRoles:
		return "roles"
	default:
		return fmt.Sprintf("bench.Axis(%d)", int(a))
	}
}

// SweepConfig parameterises a Figure 2/3 style sweep.
type SweepConfig struct {
	// Axis is the varied dimension; the other is held at Fixed.
	Axis Axis
	// Fixed is the constant dimension size (1,000 in the paper).
	Fixed int
	// Values are the sizes the varied dimension takes (1,000..10,000).
	Values []int
	// Methods are the algorithms to compare; defaults to all three.
	Methods []core.Method
	// Runs is the repetition count per point; defaults to 5 as in the
	// paper.
	Runs int
	// Threshold is the group threshold (0 = same users, the measured
	// task in the paper).
	Threshold int
	// ClusterProportion and MaxClusterSize feed the generator; defaults
	// 0.2 and 10, the paper's fixed values.
	ClusterProportion float64
	MaxClusterSize    int
	// Seed drives the generator.
	Seed int64
	// Progress, when non-nil, receives one line per completed
	// measurement for long sweeps.
	Progress func(string)
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Methods) == 0 {
		c.Methods = []core.Method{core.MethodRoleDiet, core.MethodDBSCAN, core.MethodHNSW}
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	if c.ClusterProportion == 0 {
		c.ClusterProportion = 0.2
	}
	if c.MaxClusterSize == 0 {
		c.MaxClusterSize = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate checks the sweep configuration.
func (c SweepConfig) Validate() error {
	if c.Axis != AxisUsers && c.Axis != AxisRoles {
		return fmt.Errorf("bench: unknown axis %d", int(c.Axis))
	}
	if c.Fixed <= 0 {
		return fmt.Errorf("bench: fixed dimension %d <= 0", c.Fixed)
	}
	if len(c.Values) == 0 {
		return fmt.Errorf("bench: no sweep values")
	}
	for _, v := range c.Values {
		if v <= 0 {
			return fmt.Errorf("bench: sweep value %d <= 0", v)
		}
	}
	if c.Threshold < 0 {
		return fmt.Errorf("bench: negative threshold %d", c.Threshold)
	}
	return nil
}

// SweepPoint is one x-position of the sweep with per-method timings and
// the group counts each method reported (for recall comparison).
type SweepPoint struct {
	X       int             `json:"x"`
	Timings map[string]Stat `json:"timings"`
	Groups  map[string]int  `json:"groups"`
	Found   map[string]int  `json:"rolesInGroups"`
	Planted int             `json:"planted"`
}

// SweepResult is the full sweep output.
type SweepResult struct {
	Config SweepConfig  `json:"config"`
	Points []SweepPoint `json:"points"`
}

// RunSweep executes the sweep: for every value of the varied dimension
// it generates a fresh matrix with the paper's cluster parameters and
// times each method on the identical input. Generation time is excluded
// from the measurements, matching the paper (it times "the clustering
// process").
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	result := &SweepResult{Config: cfg}
	for vi, v := range cfg.Values {
		rows, cols := cfg.Fixed, v
		if cfg.Axis == AxisRoles {
			rows, cols = v, cfg.Fixed
		}
		g, err := gen.Matrix(gen.MatrixParams{
			Rows:              rows,
			Cols:              cols,
			ClusterProportion: cfg.ClusterProportion,
			MaxClusterSize:    cfg.MaxClusterSize,
			Seed:              cfg.Seed + int64(vi),
		})
		if err != nil {
			return nil, err
		}
		planted := 0
		for _, grp := range g.Planted {
			planted += len(grp)
		}
		point := SweepPoint{
			X:       v,
			Timings: make(map[string]Stat, len(cfg.Methods)),
			Groups:  make(map[string]int, len(cfg.Methods)),
			Found:   make(map[string]int, len(cfg.Methods)),
			Planted: planted,
		}
		for _, m := range cfg.Methods {
			var groups [][]int
			stat, err := Measure(cfg.Runs, func() error {
				var innerErr error
				groups, innerErr = core.FindRoleGroups(context.Background(), g.Cols, g.Rows, core.GroupOptions{
					Method:    m,
					Threshold: cfg.Threshold,
				})
				return innerErr
			})
			if err != nil {
				return nil, fmt.Errorf("%s at %d: %w", m, v, err)
			}
			inGroups := 0
			for _, grp := range groups {
				inGroups += len(grp)
			}
			point.Timings[m.String()] = stat
			point.Groups[m.String()] = len(groups)
			point.Found[m.String()] = inGroups
			if cfg.Progress != nil {
				cfg.Progress(fmt.Sprintf("%s=%d method=%s %s (groups=%d roles=%d/%d)",
					cfg.Axis, v, m, stat, len(groups), inGroups, planted))
			}
		}
		result.Points = append(result.Points, point)
	}
	return result, nil
}

// Table renders the sweep as an aligned text table, one row per x
// value, one timing column per method — the series behind Figure 2/3.
func (r *SweepResult) Table() string {
	var b strings.Builder
	methods := make([]string, 0, len(r.Config.Methods))
	for _, m := range r.Config.Methods {
		methods = append(methods, m.String())
	}
	fmt.Fprintf(&b, "%-8s", r.Config.Axis.String())
	for _, m := range methods {
		fmt.Fprintf(&b, " %28s", m)
	}
	fmt.Fprintf(&b, " %10s\n", "recall")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8d", p.X)
		for _, m := range methods {
			fmt.Fprintf(&b, " %28s", p.Timings[m].String())
		}
		// Recall of the last (typically approximate) method vs planted.
		last := methods[len(methods)-1]
		recall := 1.0
		if p.Planted > 0 {
			recall = float64(p.Found[last]) / float64(p.Planted)
		}
		fmt.Fprintf(&b, " %9.3f\n", recall)
	}
	return b.String()
}

// CSV renders the sweep as comma-separated series for plotting.
func (r *SweepResult) CSV() string {
	var b strings.Builder
	b.WriteString(r.Config.Axis.String())
	for _, m := range r.Config.Methods {
		fmt.Fprintf(&b, ",%s_mean_s,%s_std_s", m, m)
	}
	b.WriteString("\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%d", p.X)
		for _, m := range r.Config.Methods {
			s := p.Timings[m.String()]
			fmt.Fprintf(&b, ",%.6f,%.6f", s.Mean.Seconds(), s.Std.Seconds())
		}
		b.WriteString("\n")
	}
	return b.String()
}
