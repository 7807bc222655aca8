package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"unchanged", steady, []float64{100, 100, 100}, "lower", within},
		{"better by far", steady, []float64{50, 51, 49}, "lower", within},
		{"slower past the bound", steady, []float64{120, 121, 119}, "lower", over},
		{"slower within the bound", steady, []float64{105, 106, 104}, "lower", within},
		{"throughput dropped past the bound", steady, []float64{80, 81, 79}, "higher", over},
		{"throughput rose", steady, []float64{120, 121, 119}, "higher", within},
		{"noisy parent", []float64{60, 100, 140}, []float64{100, 100, 100}, "lower", unresolved},
		{"noisy change", steady, []float64{60, 130, 200}, "lower", unresolved},
	} {
		if _, got := judge(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	specJSON := `{"end_to_end": [
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.1}]}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, recs ...record) string {
		var buf bytes.Buffer
		for _, r := range recs {
			b, _ := json.Marshal(r)
			buf.Write(append(b, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rec := func(p50, ops float64) record {
		m := map[string]float64{"latency_p50_ms": p50, "ops_per_s": ops}
		return record{Workload: "analyze-cold", Metrics: m, Rounds: []map[string]float64{m, m, m}}
	}

	a := write("a.jsonl", rec(10, 100))
	b := write("b.jsonl", rec(10.5, 99))
	var out bytes.Buffer
	if err := runCompare(&out, a, b, specPath); err != nil {
		t.Fatalf("compare within bounds failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 within, 0 over, 0 unresolved") {
		t.Errorf("summary missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "unbounded") {
		t.Errorf("metrics without a bound not shown:\n%s", out.String())
	}

	// Several runs per side: the verdict uses run-to-run values.
	c := write("c.jsonl", rec(12, 100), rec(12.1, 100), rec(11.9, 100))
	out.Reset()
	if err := runCompare(&out, a, c, specPath); err == nil {
		t.Errorf("a 20%% slower p50 passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1 within, 1 over, 0 unresolved") {
		t.Errorf("summary missing:\n%s", out.String())
	}

	other := write("other.jsonl", record{Workload: "session-churn", Metrics: map[string]float64{}})
	if err := runCompare(&out, a, other, specPath); err == nil {
		t.Error("files with no common workload compared cleanly")
	}
}
