package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	spans := []span{
		parent,
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // runs past the parent: clipped
		{ID: 5, Parent: 2, Start: 12, End: 18},   // a grandchild: already inside 2
		{ID: 6, Parent: 7, Start: 60, End: 80},   // another parent's child
		{ID: 8, Parent: 1, Start: 200, End: 300}, // wholly outside the parent
	}
	if got := covered(parent, spans); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	if self := parent.dur() - covered(parent, spans); self != 50 {
		t.Errorf("self time = %d, want 50", self)
	}
	if got := covered(span{ID: 9, Start: 5, End: 9}, spans); got != 0 {
		t.Errorf("a leaf's children cover %d, want 0", got)
	}
}

func TestTracerCoveredMatchesSpans(t *testing.T) {
	tr := newTracer()
	op := tr.nextOp()
	parent := tr.begin("replay", 0, op)
	child, _ := tr.call("child", parent, op, func() error { time.Sleep(2 * time.Millisecond); return nil })
	tr.end(parent)
	if got := tr.covered(parent); got != child {
		t.Errorf("covered %v, want the child's %v", got, child)
	}
	for _, s := range tr.spans {
		if s.Op != op || s.End < s.Start {
			t.Errorf("span %+v: wrong op or negative duration", s)
		}
	}
}

func TestLogLogSlope(t *testing.T) {
	xs := []float64{625, 1250, 2500, 5000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 2.5)
	}
	if got := logLogSlope(xs, ys); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("slope = %g, want 2.5", got)
	}
}
