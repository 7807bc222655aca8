package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"

	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/cluster/rolediet"
	"repro/internal/consolidate"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/optimize"
	"repro/internal/rbac"
	"repro/internal/replay"
	"repro/internal/session"
	"repro/internal/store"
)

// runner runs one workload's ops against one harness.
type runner interface {
	// setup registers the workload's corpora and warms the caches. Its
	// duration, with the handler's start, is the round's set-up time.
	setup(c *client) error
	// do is the timed op: client c's i-th.
	do(c *client, i int) error
	// after is the op's untimed follow-up; keep asks it to retain the
	// response for the content checks.
	after(c *client, i int, keep bool) error
	// check runs the content checks on the retained responses.
	check() []error
	// replay passes op i's input through the layers' public functions,
	// each call a span under rp.
	replay(t *tracer, rp, op int, c *client, i int) error
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// workload is one closed-loop traffic mix.
type workload struct {
	name    string
	clients int
	warmup  int // untimed ops per client before the window
	whole   int // a window's op count per client is a multiple of this
	div     int // paper-scale divisor of the workload's corpora
	prepare func(div int, seed int64) (runner, error)
	layers  []metricDef // the traced round's per-layer metrics, besides commonLayers
}

// commonLayers are reported by every workload's traced round. The first
// three are the untraced half's op time, throughput and CPU cost.
var commonLayers = []metricDef{
	{"latency_p50_ms", "ms"},
	{"ops_per_s", "op/s"},
	{"cpu_ms_per_op", "ms"},
	{"server.residual_ms", "ms"},
	{"server.request_bytes", "bytes"},
	{"server.response_bytes", "bytes"},
	{"process.peak_rss_mb", "MB"},
	{"process.gc_cpu_fraction", "ratio"},
	{"process.gc_cycles_per_op", "count"},
	{"trace.overhead_pct", "%"},
}

var workloads = []*workload{
	{
		name: "analyze-cold", clients: 1, warmup: 1, whole: 1, div: 10,
		prepare: newAnalyzeCold,
		layers: []metricDef{
			{"rbac.stream_decode_ms", "ms"},
			{"store.digest_ms", "ms"},
			{"store.put_ms", "ms"},
			{"core.snapshot_ms", "ms"},
			{"core.linear_ms", "ms"},
			{"bitmat.pack_ms", "ms"},
			{"rolediet.same_groups_ms", "ms"},
			{"rolediet.similar_groups_ms", "ms"},
			{"rolediet.pairs_examined", "count"},
			{"rolediet.pair_yield", "ratio"},
			{"core.analyze_ms", "ms"},
			{"server.encode_ms", "ms"},
		},
	},
	{
		name: "analyze-cached", clients: 2, warmup: 50, whole: 1, div: 10,
		prepare: newAnalyzeCached,
		layers: []metricDef{
			{"store.result_hit_us", "us"},
			{"store.hit_ratio", "ratio"},
			{"store.singleflight_shared", "count"},
		},
	},
	{
		name: "optimize-cold", clients: 1, warmup: 1, whole: 1, div: 40,
		prepare: newOptimizeCold,
		layers: []metricDef{
			{"rbac.decode_ms", "ms"},
			{"store.digest_ms", "ms"},
			{"optimize.run_ms", "ms"},
			{"core.analyze_ms", "ms"},
			{"consolidate.verify_ms", "ms"},
			{"optimize.unattributed_ms", "ms"},
			{"optimize.apply_ms", "ms"},
			{"optimize.rounds", "count"},
			{"optimize.actions", "count"},
			{"server.encode_ms", "ms"},
		},
	},
	{
		// Every window is whole event cycles, so it sees each point of
		// the cycle equally often.
		name: "session-churn", clients: 1, warmup: churnWarmup, whole: churnCycle, div: 10,
		prepare: newSessionChurn,
		layers: []metricDef{
			{"replay.decode_us", "us"},
			{"session.build_ms", "ms"},
			{"session.apply_us", "us"},
			{"session.audit_us", "us"},
			{"session.audit_groups", "count"},
			{"server.encode_ms", "ms"},
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// clientCount caps a workload's clients at the machine's CPU count.
func (w *workload) clientCount() int {
	return max(1, min(w.clients, runtime.NumCPU()))
}

// orgExport generates the paper's organisation at 1/div scale and its
// indented JSON export, the file an administrator would upload.
func orgExport(div int, seed int64) (*rbac.Dataset, *gen.OrgGroundTruth, []byte, error) {
	p := gen.DefaultOrgParams().Scaled(div)
	p.Seed = seed
	ds, gt, err := gen.Org(p)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("generate org /%d: %w", div, err)
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return nil, nil, nil, err
	}
	return ds, gt, buf.Bytes(), nil
}

// opDigits is the width of the op number in an injected user's ID.
const opDigits = 6

// injected is an export carrying one extra standalone user whose ID ends
// in the op number, so every op's dataset has its own digest and misses
// every cache. The number is rewritten in place for each op.
type injected struct {
	body   []byte
	prefix string
	at     int // offset of the op number in body
}

func newInjected(export []byte, seed int64) (*injected, error) {
	open := []byte(`"users": [`)
	at := bytes.Index(export, open)
	if at < 0 {
		return nil, errors.New("export has no users array")
	}
	at += len(open)
	prefix := fmt.Sprintf("bench-%d-", seed)
	entry := fmt.Sprintf("\n    %q,", prefix+strings.Repeat("0", opDigits))
	body := make([]byte, 0, len(export)+len(entry))
	body = append(body, export[:at]...)
	body = append(body, entry...)
	body = append(body, export[at:]...)
	return &injected{body: body, prefix: prefix, at: at + len("\n    \"") + len(prefix)}, nil
}

// number is op i's number as it appears in the user's ID.
func (in *injected) number(i int) string {
	return fmt.Sprintf("%0*d", opDigits, i%1_000_000)
}

// set makes body carry op i's user.
func (in *injected) set(i int) {
	copy(in.body[in.at:], in.number(i))
}

// user is op i's injected user ID.
func (in *injected) user(i int) rbac.UserID {
	return rbac.UserID(in.prefix + in.number(i))
}

// bodyFor is a fresh copy of the body carrying op i's user.
func (in *injected) bodyFor(i int) []byte {
	b := slices.Clone(in.body)
	copy(b[in.at:], in.number(i))
	return b
}

// kept is one response retained for the content checks.
type kept struct {
	op   int
	body []byte
	aux  []byte
}

func digestOf(body []byte) (string, error) {
	var resp struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("decode upload response: %w", err)
	}
	return resp.Digest, nil
}

func refBody(digest string) []byte {
	return []byte(`{"dataset_ref":"` + digest + `"}`)
}

// analyzeCold uploads a fresh paper-scale export and analyzes it by
// reference: every request misses the result cache.
type analyzeCold struct {
	export []byte
	in     *injected
	gt     *gen.OrgGroundTruth
	digest string // the current op's registered dataset
	kept   []kept
}

func newAnalyzeCold(div int, seed int64) (runner, error) {
	_, gt, export, err := orgExport(div, seed)
	if err != nil {
		return nil, err
	}
	in, err := newInjected(export, seed)
	if err != nil {
		return nil, err
	}
	return &analyzeCold{export: export, in: in, gt: gt}, nil
}

func (a *analyzeCold) setup(c *client) error {
	if err := c.call(http.MethodPost, "/v1/datasets", a.export, http.StatusCreated, ""); err != nil {
		return err
	}
	digest, err := digestOf(c.body.Bytes())
	if err != nil {
		return err
	}
	return c.call(http.MethodPost, "/v1/analyze", refBody(digest), http.StatusOK, "miss")
}

func (a *analyzeCold) do(c *client, i int) error {
	a.in.set(i)
	a.digest = ""
	if err := c.call(http.MethodPost, "/v1/datasets", a.in.body, http.StatusCreated, ""); err != nil {
		return err
	}
	digest, err := digestOf(c.body.Bytes())
	if err != nil {
		return err
	}
	a.digest = digest
	return c.call(http.MethodPost, "/v1/analyze", refBody(digest), http.StatusOK, "miss")
}

// after deletes the op's dataset so the registry stays one corpus deep.
func (a *analyzeCold) after(c *client, i int, keep bool) error {
	if keep {
		a.kept = append(a.kept, kept{op: i, body: slices.Clone(c.body.Bytes())})
	}
	if a.digest == "" {
		return nil
	}
	return c.call(http.MethodDelete, "/v1/datasets/"+a.digest, nil, http.StatusOK, "")
}

// check holds each retained report to the generator's ground truth,
// with one more standalone user: the injected one.
func (a *analyzeCold) check() []error {
	var errs []error
	for _, k := range a.kept {
		var rep core.Report
		if err := json.Unmarshal(k.body, &rep); err != nil {
			errs = append(errs, fmt.Errorf("analyze-cold op %d: decode report: %w", k.op, err))
			continue
		}
		if err := checkOrgReport(&rep, a.gt, 1); err != nil {
			errs = append(errs, fmt.Errorf("analyze-cold op %d: %w", k.op, err))
		}
		if !slices.Contains(rep.StandaloneUsers, a.in.user(k.op)) {
			errs = append(errs, fmt.Errorf("analyze-cold op %d: injected user %s not reported standalone", k.op, a.in.user(k.op)))
		}
	}
	return errs
}

// checkOrgReport compares a report's class counts with the planted
// ground truth; extraUsers standalone users were added after generation.
func checkOrgReport(rep *core.Report, gt *gen.OrgGroundTruth, extraUsers int) error {
	same := func(g []core.RoleGroup) [2]int { s := core.StatsOf(g); return [2]int{s.Groups, s.RolesInGroups} }
	checks := []struct {
		what      string
		got, want any
	}{
		{"standalone users", len(rep.StandaloneUsers), gt.StandaloneUsers + extraUsers},
		{"standalone permissions", len(rep.StandalonePermissions), gt.StandalonePermissions},
		{"standalone roles", len(rep.StandaloneRoles), gt.StandaloneRoles},
		{"roles without users", len(rep.RolesWithoutUsers), gt.RolesWithoutUsers},
		{"roles without permissions", len(rep.RolesWithoutPermissions), gt.RolesWithoutPermissions},
		{"single-user roles", len(rep.RolesWithSingleUser), gt.SingleUserRoles},
		{"single-permission roles", len(rep.RolesWithSinglePermission), gt.SinglePermissionRoles},
		{"same-user groups", same(rep.SameUserGroups), [2]int{gt.SameUserGroups, gt.SameUserGroupRoles}},
		{"same-permission groups", same(rep.SamePermissionGroups), [2]int{gt.SamePermissionGroups, gt.SamePermissionGroupRoles}},
		// At threshold 1 the similar detector also co-groups the exact pairs.
		{"similar-user groups", same(rep.SimilarUserGroups),
			[2]int{gt.SimilarUserGroups + gt.SameUserGroups, gt.SimilarUserGroupRoles + gt.SameUserGroupRoles}},
		{"similar-permission groups", same(rep.SimilarPermissionGroups),
			[2]int{gt.SimilarPermissionGroups + gt.SamePermissionGroups, gt.SimilarPermissionGroupRoles + gt.SamePermissionGroupRoles}},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("%s: got %v, planted %v", c.what, c.got, c.want)
		}
	}
	return nil
}

func (a *analyzeCold) replay(t *tracer, rp, op int, c *client, i int) error {
	ctx := context.Background()
	var (
		ds        *rbac.Dataset
		digest    string
		canonical []byte
		rep       *core.Report
	)
	steps := []struct {
		metric string
		fn     func() error
	}{
		{"rbac.stream_decode_ms", func() (err error) { ds, err = rbac.ReadJSONStream(bytes.NewReader(a.in.body)); return }},
		{"store.digest_ms", func() (err error) { digest, canonical, err = store.DigestOf(ds); return }},
		// The upload path admits the canonical bytes, which re-verifies
		// and re-parses them. The op's own copy is already deleted.
		{"store.put_ms", func() error { _, err := c.h.store.PutCanonical(digest, canonical); return err }},
		{"core.analyze_ms", func() (err error) { rep, err = core.AnalyzeContext(ctx, ds, core.Options{}); return }},
		{"server.encode_ms", func() error { _, err := json.Marshal(rep); return err }},
	}
	for _, s := range steps {
		d, err := t.call(s.metric, rp, op, s.fn)
		if err != nil {
			return err
		}
		t.value(s.metric, ms(d))
	}
	c.h.store.DeleteDataset(digest)
	return a.replayParts(t, op, ds)
}

// replayParts times the pieces of one analysis separately: the snapshot,
// the linear scans, the arena pack, and the four grouping runs. They sit
// under their own root span, since AnalyzeContext already covered them
// on the op's path.
func (a *analyzeCold) replayParts(t *tracer, op int, ds *rbac.Dataset) error {
	parts := t.begin("parts", 0, op)
	defer t.end(parts)
	ctx := context.Background()
	var an *core.Analyzer
	d, _ := t.call("core.snapshot_ms", parts, op, func() error { an = core.NewAnalyzer(ds); return nil })
	t.value("core.snapshot_ms", ms(d))
	d, err := t.call("core.linear_ms", parts, op, func() error {
		_, err := an.AnalyzeContext(ctx, core.Options{SkipGroups: true})
		return err
	})
	if err != nil {
		return err
	}
	t.value("core.linear_ms", ms(d))

	ruam, rpam := nonEmptyRows(ds.RUAM().Row, ds.NumRoles()), nonEmptyRows(ds.RPAM().Row, ds.NumRoles())
	var sides [2]*bitmat.Matrix
	d, err = t.call("bitmat.pack_ms", parts, op, func() (err error) {
		if sides[0], err = bitmat.FromRows(ruam); err != nil {
			return err
		}
		sides[1], err = bitmat.FromRows(rpam)
		return err
	})
	if err != nil {
		return err
	}
	t.value("bitmat.pack_ms", ms(d))

	var pairs, grouped int
	for k, metric := range []string{"rolediet.same_groups_ms", "rolediet.similar_groups_ms"} {
		d, err := t.call(metric, parts, op, func() error {
			for _, m := range sides {
				res, err := rolediet.GroupsMat(m, rolediet.Options{Threshold: k})
				if err != nil {
					return err
				}
				pairs += res.PairsExamined
				for _, g := range res.Groups {
					grouped += len(g)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.value(metric, ms(d))
	}
	t.value("rolediet.pairs_examined", float64(pairs))
	if pairs > 0 {
		t.value("rolediet.pair_yield", float64(grouped)/float64(pairs))
	}
	return nil
}

// nonEmptyRows is the grouping input: the rows with at least one bit,
// as core filters them.
func nonEmptyRows(row func(int) *bitvec.Vector, n int) []*bitvec.Vector {
	out := make([]*bitvec.Vector, 0, n)
	for i := 0; i < n; i++ {
		if r := row(i); r.Count() > 0 {
			out = append(out, r)
		}
	}
	return out
}

// analyzeCachedCorpora is how many registered corpora the cached
// workload cycles over.
const analyzeCachedCorpora = 8

// analyzeCached re-audits unchanged corpora: every request is served
// from the result cache.
type analyzeCached struct {
	exports [][]byte
	refs    [][]byte
	digests []string
	want    [][]byte // each corpus's miss body
	fp      string   // the fingerprint the server keys default analyses on
	store   *store.Store
	clients int
}

func newAnalyzeCached(div int, seed int64) (runner, error) {
	a := &analyzeCached{}
	for k := 0; k < analyzeCachedCorpora; k++ {
		_, _, export, err := orgExport(div, seed+int64(k))
		if err != nil {
			return nil, err
		}
		a.exports = append(a.exports, export)
	}
	fp, err := store.Fingerprint(core.Options{})
	if err != nil {
		return nil, err
	}
	a.fp = fp
	return a, nil
}

func (a *analyzeCached) setup(c *client) error {
	a.store = c.h.store
	for _, export := range a.exports {
		if err := c.call(http.MethodPost, "/v1/datasets", export, http.StatusCreated, ""); err != nil {
			return err
		}
		digest, err := digestOf(c.body.Bytes())
		if err != nil {
			return err
		}
		ref := refBody(digest)
		if err := c.call(http.MethodPost, "/v1/analyze", ref, http.StatusOK, "miss"); err != nil {
			return err
		}
		a.digests = append(a.digests, digest)
		a.refs = append(a.refs, ref)
		a.want = append(a.want, slices.Clone(c.body.Bytes()))
	}
	return nil
}

// corpus interleaves the clients over the corpora.
func (a *analyzeCached) corpus(c *client, i int) int {
	return (c.id + 2*i) % analyzeCachedCorpora
}

func (a *analyzeCached) do(c *client, i int) error {
	return c.call(http.MethodPost, "/v1/analyze", a.refs[a.corpus(c, i)], http.StatusOK, "hit")
}

// after compares a retained hit with the corpus's miss body in place:
// retaining every 16th 270 KB body for later would cost more memory
// than the comparison costs time.
func (a *analyzeCached) after(c *client, i int, keep bool) error {
	if keep && !bytes.Equal(c.body.Bytes(), a.want[a.corpus(c, i)]) {
		return fmt.Errorf("analyze-cached op %d: hit body differs from the miss body", i)
	}
	return nil
}

func (a *analyzeCached) check() []error { return nil }

func (a *analyzeCached) replay(t *tracer, rp, op int, c *client, i int) error {
	k := a.corpus(c, i)
	key := store.Key{Dataset: a.digests[k], Fingerprint: a.fp, Kind: "analyze"}
	d, err := t.call("store.result_hit_us", rp, op, func() error {
		_, hit, err := a.store.Result(context.Background(), key, func(context.Context) ([]byte, error) {
			return nil, errors.New("result not cached")
		})
		if err == nil && !hit {
			err = errors.New("result lookup missed")
		}
		return err
	})
	if err != nil {
		return err
	}
	t.value("store.result_hit_us", us(d))
	return nil
}

// optimizeCold posts a fresh export inline to the remediation planner:
// every request misses the result cache.
type optimizeCold struct {
	export []byte
	in     *injected
	kept   []kept
}

func newOptimizeCold(div int, seed int64) (runner, error) {
	_, _, export, err := orgExport(div, seed)
	if err != nil {
		return nil, err
	}
	in, err := newInjected(export, seed)
	if err != nil {
		return nil, err
	}
	return &optimizeCold{export: export, in: in}, nil
}

func (o *optimizeCold) setup(c *client) error {
	return c.call(http.MethodPost, "/v1/optimize", o.export, http.StatusOK, "miss")
}

func (o *optimizeCold) do(c *client, i int) error {
	o.in.set(i)
	return c.call(http.MethodPost, "/v1/optimize", o.in.body, http.StatusOK, "miss")
}

func (o *optimizeCold) after(c *client, i int, keep bool) error {
	if keep {
		o.kept = append(o.kept, kept{op: i, body: slices.Clone(c.body.Bytes())})
	}
	return nil
}

// check certifies each retained plan independently of the server: the
// optimized dataset grants exactly the input's user→permission relation,
// never has more roles, and the plan accounts for every removed role.
func (o *optimizeCold) check() []error {
	var errs []error
	for _, k := range o.kept {
		if err := checkOptimize(o.in.bodyFor(k.op), k.body); err != nil {
			errs = append(errs, fmt.Errorf("optimize-cold op %d: %w", k.op, err))
		}
	}
	return errs
}

func checkOptimize(input, response []byte) error {
	in, err := rbac.ReadJSON(bytes.NewReader(input))
	if err != nil {
		return fmt.Errorf("decode input: %w", err)
	}
	var res optimize.Result
	if err := json.Unmarshal(response, &res); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if res.Optimized == nil {
		return errors.New("result carries no optimized dataset")
	}
	if err := consolidate.VerifySafety(in, res.Optimized); err != nil {
		return fmt.Errorf("reachability: %w", err)
	}
	if res.After.Roles > res.Before.Roles {
		return fmt.Errorf("roles grew from %d to %d", res.Before.Roles, res.After.Roles)
	}
	if got, want := res.Plan.RolesRemoved(), res.Before.Roles-res.After.Roles; got != want {
		return fmt.Errorf("plan removes %d roles, the datasets differ by %d", got, want)
	}
	return nil
}

func (o *optimizeCold) replay(t *tracer, rp, op int, c *client, i int) error {
	ctx := context.Background()
	var (
		ds  *rbac.Dataset
		res *optimize.Result
	)
	steps := []struct {
		metric string
		fn     func() error
	}{
		{"rbac.decode_ms", func() (err error) { ds, err = rbac.ReadJSON(bytes.NewReader(o.in.body)); return }},
		{"store.digest_ms", func() error { _, _, err := store.DigestOf(ds); return err }},
		{"optimize.run_ms", func() (err error) { res, err = optimize.RunContext(ctx, ds, optimize.Knobs{}); return }},
		{"server.encode_ms", func() error { _, err := json.Marshal(res); return err }},
	}
	times := make(map[string]float64)
	for _, s := range steps {
		d, err := t.call(s.metric, rp, op, s.fn)
		if err != nil {
			return err
		}
		times[s.metric] = ms(d)
	}

	// Off the op's path: one analysis of the input and the oracle, to
	// split the planner's time, and the plan's replay.
	parts := t.begin("parts", 0, op)
	defer t.end(parts)
	for _, s := range []struct {
		metric string
		fn     func() error
	}{
		{"core.analyze_ms", func() error { _, err := core.AnalyzeContext(ctx, ds, core.Options{}); return err }},
		{"consolidate.verify_ms", func() error { return consolidate.VerifySafety(ds, res.Optimized) }},
		{"optimize.apply_ms", func() error { _, err := optimize.Apply(ds, &res.Plan); return err }},
	} {
		d, err := t.call(s.metric, parts, op, s.fn)
		if err != nil {
			return err
		}
		times[s.metric] = ms(d)
	}
	for name, v := range times {
		t.value(name, v)
	}
	t.value("optimize.unattributed_ms", times["optimize.run_ms"]-times["core.analyze_ms"]-times["consolidate.verify_ms"])
	t.value("optimize.rounds", float64(res.Rounds))
	t.value("optimize.actions", float64(len(res.Plan.Actions)))
	return nil
}

// churnCycle is how many events one session takes before the workload
// replaces it with a fresh one over the same base, so the session's size,
// and with it the cost of an op, does not depend on how many ops ran. A
// long cycle averages over many kinds of event, which keeps the cost of
// an op close from one seed to the next.
const churnCycle = 2000

// churnWarmup is how many warm-up ops take events on a session of their
// own, before the measured cycles start on a fresh one.
const churnWarmup = 50

// sessionChurn streams one drift event per op into a live session and
// reads its audit back.
type sessionChurn struct {
	base   *rbac.Dataset
	export []byte
	events []replay.Event
	lines  [][]byte // each event as one JSONL line
	digest string
	id     string // the live session
	ack    []byte // the op's events response, kept while the audit reads
	kept   []kept
	twin   twin // the replay's copy of the live session
}

// twin is an in-process session fed the same events as a live one:
// cycle names the live session it mirrors, applied counts its events.
type twin struct {
	s              *session.Session
	cycle, applied int
}

func newSessionChurn(div int, seed int64) (runner, error) {
	base, _, export, err := orgExport(div, seed)
	if err != nil {
		return nil, err
	}
	events, err := gen.Drift(base, gen.DriftParams{Events: churnCycle, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate drift: %w", err)
	}
	s := &sessionChurn{base: base, export: export, events: events}
	for _, e := range events {
		var buf bytes.Buffer
		if err := replay.WriteLog(&buf, []replay.Event{e}); err != nil {
			return nil, err
		}
		s.lines = append(s.lines, buf.Bytes())
	}
	return s, nil
}

// at maps op i to the session it runs on and the event it sends: the
// warm-up ops take the first events of session -1, and the measured ops
// whole cycles of sessions 0, 1, ... after it.
func (s *sessionChurn) at(i int) (cycle, event int) {
	if i < churnWarmup {
		return -1, i
	}
	return (i - churnWarmup) / churnCycle, (i - churnWarmup) % churnCycle
}

func (s *sessionChurn) setup(c *client) error {
	if err := c.call(http.MethodPost, "/v1/datasets", s.export, http.StatusCreated, ""); err != nil {
		return err
	}
	digest, err := digestOf(c.body.Bytes())
	if err != nil {
		return err
	}
	s.digest = digest
	return s.open(c)
}

// open starts a fresh session over the base.
func (s *sessionChurn) open(c *client) error {
	body := []byte(`{"base_ref":"` + s.digest + `"}`)
	if err := c.call(http.MethodPost, "/v1/sessions", body, http.StatusCreated, ""); err != nil {
		return err
	}
	var info session.Info
	if err := json.Unmarshal(c.body.Bytes(), &info); err != nil {
		return fmt.Errorf("decode session: %w", err)
	}
	s.id = info.ID
	return nil
}

func (s *sessionChurn) do(c *client, i int) error {
	_, event := s.at(i)
	if err := c.call(http.MethodPost, "/v1/sessions/"+s.id+"/events", s.lines[event], http.StatusOK, ""); err != nil {
		return err
	}
	s.ack = append(s.ack[:0], c.body.Bytes()...)
	return c.call(http.MethodGet, "/v1/sessions/"+s.id+"/audit", nil, http.StatusOK, "")
}

// after replaces the session once the warm-up or a whole cycle is done.
func (s *sessionChurn) after(c *client, i int, keep bool) error {
	if keep {
		s.kept = append(s.kept, kept{op: i, body: slices.Clone(c.body.Bytes()), aux: slices.Clone(s.ack)})
	}
	cycle, _ := s.at(i)
	if next, _ := s.at(i + 1); next == cycle {
		return nil
	}
	if err := c.call(http.MethodDelete, "/v1/sessions/"+s.id, nil, http.StatusOK, ""); err != nil {
		return err
	}
	return s.open(c)
}

// catchUp makes tw mirror the given cycle's session after its first n
// events, starting a fresh session when tw mirrors another cycle or is
// already past n.
func (s *sessionChurn) catchUp(tw *twin, cycle, n int) error {
	if tw.s == nil || tw.cycle != cycle || tw.applied > n {
		*tw = twin{s: session.New("twin", s.digest, s.base), cycle: cycle}
	}
	got, err := tw.s.Apply(s.events[tw.applied:n])
	tw.applied += got
	if err != nil {
		return fmt.Errorf("twin applied %d events, then: %w", got, err)
	}
	return nil
}

// check holds each retained audit to an in-process session fed the same
// events: the groups must be the same sets.
func (s *sessionChurn) check() []error {
	var (
		errs []error
		tw   twin
	)
	for _, k := range s.kept {
		var ack struct {
			Applied int `json:"applied"`
		}
		if err := json.Unmarshal(k.aux, &ack); err != nil || ack.Applied != 1 {
			errs = append(errs, fmt.Errorf("session-churn op %d: events response %s, want applied 1", k.op, k.aux))
		}
		cycle, event := s.at(k.op)
		if err := s.catchUp(&tw, cycle, event+1); err != nil {
			errs = append(errs, fmt.Errorf("session-churn op %d: %w", k.op, err))
			tw = twin{}
			continue
		}
		var got session.Audit
		if err := json.Unmarshal(k.body, &got); err != nil {
			errs = append(errs, fmt.Errorf("session-churn op %d: decode audit: %w", k.op, err))
			continue
		}
		if err := sameAudit(got, tw.s.Audit()); err != nil {
			errs = append(errs, fmt.Errorf("session-churn op %d: %w", k.op, err))
		}
	}
	return errs
}

func sameAudit(got, want session.Audit) error {
	if got.Events != want.Events || got.Stats != want.Stats {
		return fmt.Errorf("audit at %d events %+v, twin at %d events %+v", got.Events, got.Stats, want.Events, want.Stats)
	}
	for _, side := range []struct {
		what      string
		got, want [][]rbac.RoleID
	}{
		{"same-user groups", got.SameUserGroups, want.SameUserGroups},
		{"same-permission groups", got.SamePermissionGroups, want.SamePermissionGroups},
	} {
		session.SortGroups(side.got)
		session.SortGroups(side.want)
		if !slices.EqualFunc(side.got, side.want, slices.Equal[[]rbac.RoleID]) {
			return fmt.Errorf("%s differ from the twin's (%d vs %d groups)", side.what, len(side.got), len(side.want))
		}
	}
	return nil
}

func (s *sessionChurn) replay(t *tracer, rp, op int, c *client, i int) error {
	cycle, event := s.at(i)
	if s.twin.s == nil || s.twin.cycle != cycle {
		// Open the twin the way the live session was opened.
		d, _ := t.call("session.build_ms", 0, op, func() error {
			s.twin = twin{s: session.New("twin", s.digest, s.base), cycle: cycle}
			return nil
		})
		t.value("session.build_ms", ms(d))
	}
	if err := s.catchUp(&s.twin, cycle, event); err != nil {
		return err
	}
	var (
		events []replay.Event
		audit  session.Audit
	)
	steps := []struct {
		metric string
		toUS   bool
		fn     func() error
	}{
		{"replay.decode_us", true, func() (err error) {
			events, err = replay.ReadLogLimited(bytes.NewReader(s.lines[event]), replay.Limits{})
			return
		}},
		{"session.apply_us", true, func() error {
			n, err := s.twin.s.Apply(events)
			s.twin.applied += n
			if err == nil && n != 1 {
				err = fmt.Errorf("applied %d events, want 1", n)
			}
			return err
		}},
		{"session.audit_us", true, func() error { audit = s.twin.s.Audit(); return nil }},
		{"server.encode_ms", false, func() error { _, err := json.Marshal(audit); return err }},
	}
	for _, st := range steps {
		d, err := t.call(st.metric, rp, op, st.fn)
		if err != nil {
			return err
		}
		if st.toUS {
			t.value(st.metric, us(d))
		} else {
			t.value(st.metric, ms(d))
		}
	}
	t.value("session.audit_groups", float64(len(audit.SameUserGroups)+len(audit.SamePermissionGroups)))
	return nil
}
