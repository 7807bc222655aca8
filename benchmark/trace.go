package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/optimize"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced round's spans in memory, plus the per-op values
// the per-layer metrics are medians of. The benchmark writes the spans
// out when the run ends. Clients of one round share it.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	ops    int
	spans  []span
	values map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), values: make(map[string][]float64)}
}

// nextOp allocates the identifier the spans of one op share.
func (t *tracer) nextOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, op int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID:     len(t.spans) + 1,
		Parent: parent,
		Op:     op,
		Name:   name,
		Start:  now,
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// covered is how much of span id its children cover.
func (t *tracer) covered(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return covered(t.spans[id-1], t.spans)
}

// call runs fn as a span under parent and returns its duration.
func (t *tracer) call(name string, parent, op int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, op)
	err := fn()
	d := t.end(id)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// value records one op's reading of a per-layer metric.
func (t *tracer) value(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.values[name] = append(t.values[name], v)
}

// covered is how much of parent's interval its children cover, with
// overlapping children counted once and parts outside parent ignored. A
// span's self time is its duration minus this.
func covered(parent span, spans []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, s := range spans {
		if s.Parent != parent.ID || s.ID == parent.ID {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return time.Duration(total)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Size ladder: the paper's organisation at these divisors of its full
// scale (625 to 10,000 roles). The planner is laddered only up to /20,
// the largest rung that stays under about 2 s per run.
var (
	ladderCoreDivs     = []int{80, 40, 20, 10, 5}
	ladderOptimizeDivs = []int{80, 40, 20}
)

// ladderReps is how many times each rung runs; the rung reports the
// median.
const ladderReps = 3

// runLadder times core.AnalyzeContext and optimize.RunContext over the
// size ladder and fits each one's log-log scaling exponent.
func runLadder(seed int64) (map[string]float64, []span, error) {
	t := newTracer()
	out := make(map[string]float64)
	ctx := context.Background()
	rung := func(kind string, div int, fn func() error) (float64, error) {
		var times []float64
		for rep := 0; rep < ladderReps; rep++ {
			d, err := t.call(fmt.Sprintf("ladder.%s.div%d", kind, div), 0, rep, fn)
			if err != nil {
				return 0, err
			}
			times = append(times, ms(d))
		}
		return median(times), nil
	}
	var coreX, coreY, optX, optY []float64
	for _, div := range ladderCoreDivs {
		p := gen.DefaultOrgParams().Scaled(div)
		p.Seed = seed
		ds, _, err := gen.Org(p)
		if err != nil {
			return nil, nil, fmt.Errorf("ladder /%d: %w", div, err)
		}
		roles := float64(ds.NumRoles())
		v, err := rung("core.analyze", div, func() error {
			_, err := core.AnalyzeContext(ctx, ds, core.Options{})
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		out[fmt.Sprintf("ladder.core.analyze_ms.r%d", ds.NumRoles())] = v
		coreX, coreY = append(coreX, roles), append(coreY, v)
		if !slices.Contains(ladderOptimizeDivs, div) {
			continue
		}
		v, err = rung("optimize.run", div, func() error {
			_, err := optimize.RunContext(ctx, ds, optimize.Knobs{})
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		out[fmt.Sprintf("ladder.optimize.run_ms.r%d", ds.NumRoles())] = v
		optX, optY = append(optX, roles), append(optY, v)
	}
	out["ladder.core.analyze_exponent"] = logLogSlope(coreX, coreY)
	out["ladder.optimize.run_exponent"] = logLogSlope(optX, optY)
	return out, t.spans, nil
}

// logLogSlope is the least-squares slope of ln y against ln x: the
// exponent b of y ≈ a·x^b.
func logLogSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
