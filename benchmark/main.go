// Command benchmark is the repository's end-to-end benchmark. It drives
// the real roledietd handler (server.NewHandler) over a loopback HTTP
// listener with four closed-loop workloads, checks every response, and
// prints each metric by name and unit, then one JSON result line.
//
//	bash benchmark/run.sh --workload analyze-cold --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload analyze-cold --seed 1 --seconds 20 --trace 1
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
//
// An untraced run measures one workload in three rounds, each in its own
// child process; a traced run tours every workload once and then the
// size ladder, and prints the per-layer metrics. README.md describes the
// workloads, the metrics and their bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
)

// rounds is how many child processes an untraced run splits its
// measured time over; percentiles pool their samples.
const rounds = 3

// runMetrics are what an untraced run measures, prints and records for
// -compare.
var runMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// endToEnd are the run metrics the result line carries, the ones
// BENCHMARK.json bounds. The op times are left out: on a shared host
// they move by 10-25% from one run to the next with memory-bandwidth
// contention, more than any bound could absorb, so the traced run
// reports them among the per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer lists every metric a traced run reports.
func perLayer() []metricDef {
	var out []metricDef
	for _, w := range workloads {
		for _, m := range append(slices.Clone(w.layers), commonLayers...) {
			out = append(out, metricDef{w.name + "." + m.name, m.unit})
		}
	}
	for _, div := range ladderCoreDivs {
		out = append(out, metricDef{fmt.Sprintf("ladder.core.analyze_ms.r%d", gen.DefaultOrgParams().Scaled(div).Roles), "ms"})
	}
	for _, div := range ladderOptimizeDivs {
		out = append(out, metricDef{fmt.Sprintf("ladder.optimize.run_ms.r%d", gen.DefaultOrgParams().Scaled(div).Roles), "ms"})
	}
	return append(out,
		metricDef{"ladder.core.analyze_exponent", "exponent"},
		metricDef{"ladder.optimize.run_exponent", "exponent"})
}

// roundResult is what one child process reports.
type roundResult struct {
	Workload  string             `json:"workload"`
	SetupS    float64            `json:"setup_s"`
	LatencyMS []float64          `json:"latency_ms,omitempty"`
	TimedS    float64            `json:"timed_s"`
	CPUS      float64            `json:"cpu_s"`
	AllocB    float64            `json:"alloc_bytes"`
	Attempted int                `json:"attempted"`
	Failures  []string           `json:"failures,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the line -out appends: an untraced run's metrics overall
// and per round, which -compare reads back.
type record struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Metrics  map[string]float64   `json:"metrics"`
	Rounds   []map[string]float64 `json:"rounds"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 20, "timed op time per run, split over its rounds")
		trace    = fs.Int("trace", 0, "1 runs the traced tour of every workload and the size ladder")
		out      = fs.String("out", "", "append the untraced run's record (one JSON line) to this file")
		spans    = fs.String("spans", filepath.Join(".bench_build", "spans.json"), "file a traced run writes its spans to")
		compare  = fs.String("compare", "", "compare two -out files: -compare a.jsonl b.jsonl")
		child    = fs.String("child", "", "internal: run one round (round) or the size ladder (ladder) and print its JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two files: -compare a.jsonl b.jsonl")
			return 2
		}
		if err := runCompare(stdout, *compare, fs.Arg(0), "BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if budget <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	var err error
	switch {
	case *child == "ladder":
		err = printJSON(stdout, func() (any, error) {
			layers, sp, err := runLadder(*seed)
			return &roundResult{Workload: "ladder", Layers: layers, Spans: sp}, err
		})
	case *child == "round":
		err = printJSON(stdout, func() (any, error) {
			w, err := workloadByName(*workload)
			if err != nil {
				return nil, err
			}
			return runRound(w, *seed, w.div, budget, *trace == 1)
		})
	case *child != "":
		err = fmt.Errorf("unknown -child %q", *child)
	default:
		w, werr := workloadByName(*workload)
		if werr != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", werr)
			return 2
		}
		if *trace == 1 {
			return tracedRun(stdout, *seed, budget, *spans)
		}
		return untracedRun(stdout, w, *seed, budget, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func printJSON(w io.Writer, fn func() (any, error)) error {
	v, err := fn()
	if err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// spawn runs one child process of this binary and decodes the JSON line
// it prints.
func spawn(args ...string) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	var res roundResult
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("child %s: decode result: %w", strings.Join(args, " "), err)
	}
	return &res, nil
}

func childArgs(kind, workload string, seed int64, budget time.Duration, trace bool) []string {
	t := "0"
	if trace {
		t = "1"
	}
	return []string{"-child", kind, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(budget.Seconds(), 'f', -1, 64), "-trace", t}
}

// runRound is one round of a workload: generate its inputs, start the
// daemon and set it up, warm up, then measure. A traced round spends half
// its budget untraced, for the process metrics and the tracing overhead,
// and half replaying each op through the layers.
func runRound(w *workload, seed int64, div int, budget time.Duration, traced bool) (*roundResult, error) {
	d, err := w.prepare(div, seed)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	start := time.Now()
	h, err := newHarness(w.clientCount())
	if err != nil {
		return nil, err
	}
	defer h.close()
	clients := make([]*client, w.clientCount())
	for k := range clients {
		clients[k] = &client{id: k, h: h}
	}
	if err := d.setup(clients[0]); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	res := &roundResult{Workload: w.name, SetupS: time.Since(start).Seconds()}
	if err := warmUp(w, d, clients); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	runtime.GC()

	// An untraced round issues at least its share of the samples the
	// p90 needs, however slow the ops are; the untraced half of a traced
	// round, enough for a p50.
	minOps := (samplesFor(90) + rounds*len(clients) - 1) / (rounds * len(clients))
	if traced {
		budget, minOps = budget/2, samplesFor(50)
	}
	win := runWindow(w, d, clients, budget, minOps, nil)
	res.LatencyMS = win.latMS
	res.TimedS = win.use.wall.Seconds()
	res.CPUS = win.use.cpu.Seconds()
	res.AllocB = win.use.alloc
	res.Attempted = win.attempted
	res.Failures = win.failures
	if traced {
		t := newTracer()
		for name, v := range runMetricsOf([]*roundResult{res}) {
			t.value(name, v)
		}
		t.value("process.peak_rss_mb", peakRSSMB())
		t.value("process.gc_cpu_fraction", win.use.gcCPU/win.use.cpu.Seconds())
		t.value("process.gc_cycles_per_op", win.use.gcs/float64(win.attempted))
		tw := runWindow(w, d, clients, budget, 0, t)
		res.Attempted += tw.attempted
		res.Failures = append(res.Failures, tw.failures...)
		t.value("trace.overhead_pct", (median(tw.latMS)/median(win.latMS)-1)*100)
		st := h.store.Stats()
		t.value("store.hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses))
		t.value("store.singleflight_shared", float64(st.Shared))
		res.Layers = make(map[string]float64)
		for _, m := range append(slices.Clone(w.layers), commonLayers...) {
			vs := t.values[m.name]
			if len(vs) == 0 {
				res.Failures = append(res.Failures, fmt.Sprintf("%s: traced round recorded no %s", w.name, m.name))
				continue
			}
			res.Layers[w.name+"."+m.name] = median(vs)
		}
		res.Spans = t.spans
	}
	for _, err := range d.check() {
		res.Failures = append(res.Failures, err.Error())
	}
	return res, nil
}

// untracedRun measures one workload in rounds, each in its own child
// process so no round inherits another's heap, and prints the run
// metrics.
func untracedRun(stdout io.Writer, w *workload, seed int64, budget time.Duration, out string) int {
	var rs []*roundResult
	for r := 0; r < rounds; r++ {
		res, err := spawn(childArgs("round", w.name, seed, budget/rounds, false)...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		rs = append(rs, res)
	}
	attempted, failures := tally(rs)
	m := runMetricsOf(rs)
	if err := checkSamples(len(pooled(rs)), 90); err != nil {
		failures = append(failures, fmt.Sprintf("%s: %v", w.name, err))
	}
	fmt.Fprintf(stdout, "workload %s, seed %d: %d rounds, %d timed ops\n", w.name, seed, len(rs), len(pooled(rs)))
	code := report(stdout, runMetrics, endToEnd, m, attempted, failures)
	if out != "" && code == 0 {
		rec := record{Workload: w.name, Seed: seed, Metrics: m}
		for _, r := range rs {
			rec.Rounds = append(rec.Rounds, runMetricsOf([]*roundResult{r}))
		}
		if err := appendRecord(out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// tracedRun tours every workload for one traced round each, then the
// size ladder, writes the spans, and prints the per-layer metrics.
func tracedRun(stdout io.Writer, seed int64, budget time.Duration, spansPath string) int {
	type roundSpans struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var (
		rs    []*roundResult
		dump  []roundSpans
		share = budget / time.Duration(len(workloads))
	)
	for _, w := range workloads {
		res, err := spawn(childArgs("round", w.name, seed, share, true)...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		rs = append(rs, res)
	}
	lad, err := spawn(childArgs("ladder", "", seed, budget, false)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rs = append(rs, lad)
	m := make(map[string]float64)
	for _, r := range rs {
		for k, v := range r.Layers {
			m[k] = v
		}
		dump = append(dump, roundSpans{r.Workload, r.Spans})
	}
	if err := writeJSONFile(spansPath, map[string]any{"seed": seed, "rounds": dump}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "traced tour, seed %d: spans in %s\n", seed, spansPath)
	attempted, failures := tally(rs)
	return report(stdout, perLayer(), perLayer(), m, attempted, failures)
}

// tally counts the ops the rounds attempted and lists their failures.
func tally(rs []*roundResult) (int, []string) {
	attempted := 0
	var failures []string
	for _, r := range rs {
		attempted += r.Attempted
		failures = append(failures, r.Failures...)
	}
	return attempted, failures
}

func pooled(rs []*roundResult) []float64 {
	var lat []float64
	for _, r := range rs {
		lat = append(lat, r.LatencyMS...)
	}
	return lat
}

// runMetricsOf pools the rounds: percentiles over every sample, rates
// over the summed ops and time, set-up as the median round.
func runMetricsOf(rs []*roundResult) map[string]float64 {
	var timed, cpu, alloc float64
	var setups []float64
	for _, r := range rs {
		timed += r.TimedS
		cpu += r.CPUS
		alloc += r.AllocB
		setups = append(setups, r.SetupS)
	}
	lat := pooled(rs)
	ops := float64(len(lat))
	return map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       ops / timed,
		"latency_p50_ms":  percentile(lat, 50),
		"latency_p90_ms":  percentile(lat, 90),
		"cpu_ms_per_op":   cpu * 1000 / ops,
		"alloc_mb_per_op": alloc / 1e6 / ops,
	}
}

// report prints each printed metric by name and unit, the error rate
// and a FAIL line per failure, then the result line carrying the
// reported metrics. It returns the exit code.
func report(stdout io.Writer, printed, reported []metricDef, m map[string]float64, attempted int, failures []string) int {
	res := result{Metrics: make(map[string]metricValue)}
	for _, d := range printed {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			failures = append(failures, fmt.Sprintf("metric %s not measured", d.name))
			continue
		}
		fmt.Fprintf(stdout, "%-48s %16.6f %s\n", d.name, v, d.unit)
		if slices.Contains(reported, d) {
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	res.Attempted = attempted
	res.Failed = len(failures)
	res.Correct = res.Failed == 0
	if attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	fmt.Fprintf(stdout, "%-48s %16.6f ratio (%d of %d ops)\n", "error_rate", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, f := range failures {
		fmt.Fprintln(stdout, "FAIL", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n", b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
