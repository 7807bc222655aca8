package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json that -compare reads: each
// end-to-end metric's direction and bound.
type spec struct {
	EndToEnd []metricBound `json:"end_to_end"`
}

type metricBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords groups a -out file's records by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// sideValues is one side's readings of a metric: one per run when the
// side has several runs, else its single run's rounds.
func sideValues(recs []record, metric string) []float64 {
	var vs []float64
	if len(recs) == 1 {
		for _, r := range recs[0].Rounds {
			vs = append(vs, r[metric])
		}
		return vs
	}
	for _, r := range recs {
		vs = append(vs, r.Metrics[metric])
	}
	return vs
}

// Verdicts of one workload × metric pair.
const (
	within     = "within"
	over       = "over"
	unresolved = "unresolved"
)

// judge compares side b against side a. change is b's median relative to
// a's, signed; the pair is over when it is worse than a by more than
// bound, and unresolved when either side's spread is wider than bound.
func judge(a, b []float64, better string, bound float64) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		return change, unresolved
	case worse > bound:
		return change, over
	default:
		return change, within
	}
}

// runCompare prints, for each workload in both files and each run
// metric, both medians, the change, the bound, both spreads and the
// verdict; metrics BENCHMARK.json does not bound get none. It fails when
// any pair is over its bound.
func runCompare(stdout io.Writer, aPath, bPath, specPath string) error {
	s, err := readSpec(specPath)
	if err != nil {
		return err
	}
	ra, err := readRecords(aPath)
	if err != nil {
		return err
	}
	rb, err := readRecords(bPath)
	if err != nil {
		return err
	}
	bounds := make(map[string]metricBound)
	for _, m := range s.EndToEnd {
		bounds[m.Name] = m
	}
	counts := map[string]int{}
	fmt.Fprintf(stdout, "%-15s %-16s %14s %14s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "a", "b", "change", "bound", "spread_a", "spread_b", "verdict")
	pairs := 0
	for _, w := range workloads {
		as, bs := ra[w.name], rb[w.name]
		if len(as) == 0 || len(bs) == 0 {
			continue
		}
		for _, m := range runMetrics {
			va, vb := sideValues(as, m.name), sideValues(bs, m.name)
			b, ok := bounds[m.name]
			if !ok {
				fmt.Fprintf(stdout, "%-15s %-16s %14.6g %14.6g %+7.1f%% %6s %7.1f%% %7.1f%%  %s\n",
					w.name, m.name, median(va), median(vb), 100*(median(vb)/median(va)-1), "-",
					100*spread(va), 100*spread(vb), "unbounded")
				continue
			}
			change, verdict := judge(va, vb, b.Better, b.Bound)
			counts[verdict]++
			pairs++
			fmt.Fprintf(stdout, "%-15s %-16s %14.6g %14.6g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				w.name, m.name, median(va), median(vb), 100*change, 100*b.Bound,
				100*spread(va), 100*spread(vb), verdict)
		}
	}
	if pairs == 0 {
		return fmt.Errorf("%s and %s share no workload", aPath, bPath)
	}
	fmt.Fprintf(stdout, "%d within, %d over, %d unresolved\n", counts[within], counts[over], counts[unresolved])
	if counts[over] > 0 {
		return fmt.Errorf("%d pairs over their bound", counts[over])
	}
	return nil
}
