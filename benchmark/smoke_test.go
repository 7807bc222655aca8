package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/rbac"
	"repro/internal/store"
)

// smokeDiv runs the workloads on a 1/400-scale organisation, so the
// smoke takes about 3 s.
const smokeDiv = 400

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runRound(w, 1, smokeDiv, 20*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(res.Failures) > 0 {
				t.Errorf("%s traced=%v: %d failures, first: %s", w.name, traced, len(res.Failures), res.Failures[0])
			}
			if res.Attempted < 1 || res.SetupS <= 0 || res.TimedS <= 0 {
				t.Errorf("%s traced=%v: attempted %d, set-up %gs, timed %gs", w.name, traced, res.Attempted, res.SetupS, res.TimedS)
			}
			if !traced {
				if want := samplesFor(90) / rounds; len(res.LatencyMS) < want {
					t.Errorf("%s: %d samples in a round, want at least %d", w.name, len(res.LatencyMS), want)
				}
				continue
			}
			for _, m := range append(slices.Clone(w.layers), commonLayers...) {
				if _, ok := res.Layers[w.name+"."+m.name]; !ok {
					t.Errorf("%s: traced round lacks %s", w.name, m.name)
				}
			}
			if len(res.Spans) == 0 {
				t.Errorf("%s: traced round recorded no spans", w.name)
			}
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	digest := func(seed int64) string {
		_, _, export, err := orgExport(smokeDiv, seed)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := rbac.ReadJSON(bytes.NewReader(export))
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := store.DigestOf(ds)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if digest(7) != digest(7) {
		t.Error("one seed gave two corpora")
	}
	if digest(7) == digest(8) {
		t.Error("two seeds gave one corpus")
	}

	events := func(seed int64) []byte {
		d, err := newSessionChurn(smokeDiv, seed)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(d.(*sessionChurn).lines, nil)
	}
	if !bytes.Equal(events(7), events(7)) {
		t.Error("one seed gave two event streams")
	}
	if bytes.Equal(events(7), events(8)) {
		t.Error("two seeds gave one event stream")
	}
}

func TestInjectedUserIsRewrittenInPlace(t *testing.T) {
	_, _, export, err := orgExport(smokeDiv, 3)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInjected(export, 3)
	if err != nil {
		t.Fatal(err)
	}
	in.set(42)
	ds, err := rbac.ReadJSON(bytes.NewReader(in.body))
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.User(0); got != in.user(42) || got != "bench-3-000042" {
		t.Errorf("first user %q, want %q", got, in.user(42))
	}
	if !bytes.Equal(in.bodyFor(42), in.body) {
		t.Error("bodyFor differs from the in-place body")
	}
}

func TestReportLastLine(t *testing.T) {
	var out bytes.Buffer
	printed := []metricDef{{"setup_s", "s"}, {"ops_per_s", "op/s"}}
	code := report(&out, printed, printed[:1], map[string]float64{"setup_s": 0.25, "ops_per_s": 4.5}, 10, nil)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out.String(), "ops_per_s") {
		t.Errorf("printed metric missing:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil || len(metrics) != 1 || metrics["setup_s"].Unit != "s" {
		t.Errorf("result metrics %v (%v), want only setup_s", metrics, err)
	}

	out.Reset()
	if code := report(&out, printed[:1], printed[:1], map[string]float64{"setup_s": 1}, 10, []string{"op 3: status 500"}); code == 0 {
		t.Error("a failed op exited 0")
	}
	if !strings.Contains(out.String(), "FAIL op 3: status 500") {
		t.Errorf("no FAIL line:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the workloads and
// metrics the program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s %s, program reports %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}
