package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live daemons")
	}
	t.Run("jobs", testJobs)
	t.Run("store", testStore)
	t.Run("drift", testDrift)
	t.Run("optimize", testOptimize)
	t.Run("continuous", testContinuous)
	t.Run("cluster", testCluster)
}

// testJobs drives the async job lifecycle: submit, poll to done,
// fetch the result, cancel too late, and ask for an unknown id.
func testJobs(t *testing.T) {
	d := startDaemon(t, "jobs", "-job-result-ttl", "5m")
	body := fmt.Sprintf(`{"kind":"analyze","options":{"method":"rolediet","threshold":1},"dataset":%s}`, readFile(t, org400))
	var job struct{ ID string }
	call(t, "POST", d.url+"/v1/jobs", body, http.StatusAccepted, &job)
	if snap := waitJob(t, d.url, job.ID); snap.Progress.Fraction != 1 {
		t.Fatalf("finished job reports fraction %v, want 1", snap.Progress.Fraction)
	}
	var report map[string]json.RawMessage
	call(t, "GET", d.url+"/v1/jobs/"+job.ID+"/result", nil, http.StatusOK, &report)
	if _, ok := report["linearScanDurationNanos"]; !ok {
		t.Fatal("job result is not an analyze report")
	}
	call(t, "DELETE", d.url+"/v1/jobs/"+job.ID, nil, http.StatusConflict, nil)
	callErr(t, "GET", d.url+"/v1/jobs/doesnotexist", nil, http.StatusNotFound, "not_found")
}

// testStore drives the dataset registry and result cache: the digest
// contract, a by-ref cache hit, a diff by refs, persistence across a
// restart, and delete.
func testStore(t *testing.T) {
	d := startDaemon(t, "store", "-store-dir", t.TempDir())
	digest := upload(t, d.url, org400).Digest
	if want := strings.TrimSpace(string(cli(t, "digest", "-data", org400))); digest != want {
		t.Fatalf("server digest %s, rolediet digest %s", digest, want)
	}
	missThenHit(t, d.url+"/v1/analyze", byRef(digest))
	var stats struct{ Store struct{ Hits int } }
	call(t, "GET", d.url+"/v1/stats", nil, http.StatusOK, &stats)
	if stats.Store.Hits == 0 {
		t.Fatal("stats show no cache hit")
	}

	refs := map[string]string{"before_ref": digest, "after_ref": upload(t, d.url, org300).Digest}
	var diff map[string]json.RawMessage
	call(t, "POST", d.url+"/v1/diff", refs, http.StatusOK, &diff)
	if _, ok := diff["structural"]; !ok {
		t.Fatal("diff by refs has no structural section")
	}

	d.restart()
	call(t, "GET", d.url+"/v1/datasets/"+digest, nil, http.StatusOK, nil)
	call(t, "DELETE", d.url+"/v1/datasets/"+digest, nil, http.StatusOK, nil)
	callErr(t, "GET", d.url+"/v1/datasets/"+digest, nil, http.StatusNotFound, "not_found")
}

// testDrift applies a generated event log to a session and requires its
// O(delta) audit to match a full re-analysis of the replayed snapshot,
// then drives /v1/drift caching and the event-log size cap.
func testDrift(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	cli(t, "drift", "-gen-base", org400, "-gen-events", "3", "-seed", "7", "-out", events)
	log := readFile(t, events)
	if n := bytes.Count(log, []byte("\n")); n != 3 {
		t.Fatalf("generated log has %d events, want 3", n)
	}

	d := startDaemon(t, "drift", "-store-dir", filepath.Join(dir, "store"))
	base := upload(t, d.url, org400).Digest
	sid := openSession(t, d.url, base)
	applyEvents(t, d.url, sid, log, 3)
	audit := call(t, "GET", d.url+"/v1/sessions/"+sid+"/audit", nil, http.StatusOK, nil).body

	after := filepath.Join(dir, "after.json")
	cli(t, "replay", "-base", org400, "-log", events, "-out", after)
	report := cli(t, "analyze", "-data", after, "-format", "json")
	got := cli(t, "drift", "-normalize", writeFile(t, dir, "audit.json", audit))
	want := cli(t, "drift", "-normalize", writeFile(t, dir, "report.json", report))
	if !bytes.Equal(got, want) {
		t.Fatalf("session audit differs from a full re-analysis:\naudit:  %.400s\nreport: %.400s", got, want)
	}

	refs := map[string]string{"before_ref": base, "after_ref": upload(t, d.url, after).Digest}
	var drift struct{ Events int }
	if err := json.Unmarshal(missThenHit(t, d.url+"/v1/drift", refs), &drift); err != nil || drift.Events != 3 {
		t.Fatalf("drift report: events %d (%v), want 3", drift.Events, err)
	}

	bomb := `{"op":"add-role","role":"` + strings.Repeat("x", 20000*64) + "\"}\n"
	callErr(t, "POST", d.url+"/v1/sessions/"+sid+"/events", bomb, http.StatusBadRequest, "payload_too_large")
	call(t, "DELETE", d.url+"/v1/sessions/"+sid, nil, http.StatusOK, nil)
}

// testOptimize requires a cached plan, its paged view to agree with it,
// and its CLI replay to leave no class-4 duplicate group.
func testOptimize(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "optimize", "-store-dir", filepath.Join(dir, "store"))
	digest := upload(t, d.url, org400).Digest
	post := missThenHit(t, d.url+"/v1/optimize", byRef(digest))
	var res struct{ Plan json.RawMessage }
	if err := json.Unmarshal(post, &res); err != nil || len(res.Plan) == 0 {
		t.Fatalf("optimize reply carries no plan (%v): %.300s", err, post)
	}
	page := call(t, "GET", d.url+"/v1/optimize/"+digest+"/plan?page_size=1000", nil, http.StatusOK, nil).body
	plan := cli(t, "optimize", "-normalize", writeFile(t, dir, "post.json", post))
	if paged := cli(t, "optimize", "-normalize", writeFile(t, dir, "page.json", page)); !bytes.Equal(plan, paged) {
		t.Fatalf("paged plan differs from the POST plan:\npost: %.300s\npage: %.300s", plan, paged)
	}

	applied := filepath.Join(dir, "applied.json")
	if out := cli(t, "optimize", "-data", org400, "-apply", writeFile(t, dir, "plan.json", plan), "-out", applied); !bytes.Contains(out, []byte("replayed")) {
		t.Fatalf("plan replay printed no summary: %s", out)
	}
	var re struct{ SameUserGroups, SamePermissionGroups []json.RawMessage }
	if err := json.Unmarshal(cli(t, "analyze", "-data", applied, "-format", "json"), &re); err != nil {
		t.Fatal(err)
	}
	if len(re.SameUserGroups)+len(re.SamePermissionGroups) != 0 {
		t.Fatalf("applied plan leaves %d same-user and %d same-permission groups",
			len(re.SameUserGroups), len(re.SamePermissionGroups))
	}

	runs, hits := 0, 0
	for _, dec := range decisions(t, d.url) {
		if dec.Kind == "optimize" {
			runs++
			if dec.CacheHit {
				hits++
			}
		}
	}
	if runs < 2 || hits == 0 {
		t.Fatalf("decision log has %d optimize runs, %d cache hits; want >= 2 and >= 1", runs, hits)
	}
}

// testContinuous points a tight schedule at a live session, mutates the
// session, and follows the drift alert to a webhook receiver, the
// decision log, the metrics, and across a graceful restart.
func testContinuous(t *testing.T) {
	dir := t.TempDir()
	hookAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	hooks := filepath.Join(dir, "hooks.jsonl")
	hook := newProc(t, "webhook", "rolediet", "webhook", "-addr", hookAddr, "-out", hooks, "-count", "1", "-timeout", "60s")
	hook.launch()
	eventually(t, "webhook listening", func() bool {
		c, err := net.Dial("tcp", hookAddr)
		if err == nil {
			c.Close()
		}
		return err == nil
	})

	d := startDaemon(t, "continuous", "-store-dir", filepath.Join(dir, "store"), "-schedule-min-interval", "200ms")
	base := upload(t, d.url, "../../testdata/figure1.json").Digest
	sid := openSession(t, d.url, base)
	var sink, rule, sched struct{ ID string }
	call(t, "POST", d.url+"/v1/sinks", map[string]string{"url": "http://" + hookAddr + "/hook", "name": "e2e"}, http.StatusCreated, &sink)
	call(t, "POST", d.url+"/v1/alerts", map[string]any{"type": "drift", "threshold": 1, "sink_ids": []string{sink.ID}}, http.StatusCreated, &rule)
	// The schedule snapshots the session on each fire, so mutating the
	// session changes the digest the next run analyses.
	call(t, "POST", d.url+"/v1/schedules", map[string]string{"dataset_ref": base, "session_id": sid, "interval": "300ms"}, http.StatusCreated, &sched)
	eventually(t, "a scheduled decision", func() bool {
		return slices.ContainsFunc(decisions(t, d.url), func(dec decision) bool { return strings.HasPrefix(dec.Source, "schedule:") })
	})

	// R06 duplicates R01's user set.
	applyEvents(t, d.url, sid, []byte(`{"op":"add-role","role":"R06"}
{"op":"assign-user","role":"R06","user":"U03"}
`), 2)
	if err := hook.wait(); err != nil {
		t.Fatalf("webhook exited without a delivery: %v", err)
	}
	var alert struct {
		Type   string
		RuleID string `json:"rule_id"`
	}
	if err := json.NewDecoder(bytes.NewReader(readFile(t, hooks))).Decode(&alert); err != nil || alert.Type != "drift" || alert.RuleID != rule.ID {
		t.Fatalf("delivered alert %+v (%v), want a drift alert from rule %s", alert, err, rule.ID)
	}

	digests := map[string]bool{}
	var lastSeq int64
	for _, dec := range decisions(t, d.url) {
		if strings.HasPrefix(dec.Source, "schedule:") {
			digests[dec.Dataset] = true
		}
		lastSeq = max(lastSeq, dec.Seq)
	}
	if len(digests) < 2 || !digests[base] {
		t.Fatalf("scheduled runs cover digests %v, want >= 2 including the base %s", digests, base)
	}

	metrics := string(call(t, "GET", d.url+"/metrics", nil, http.StatusOK, nil).body)
	for _, series := range []string{
		"rolediet_schedule_fires_total",
		`rolediet_alert_trips_total{type="drift"}`,
		`rolediet_sink_deliveries_total{outcome="ok"}`,
		"rolediet_decisions_total",
	} {
		if !slices.ContainsFunc(strings.Split(metrics, "\n"), func(line string) bool {
			f := strings.Fields(line)
			return strings.HasPrefix(line, series) && f[len(f)-1] != "0"
		}) {
			t.Errorf("metric %s missing or zero", series)
		}
	}

	for range 2 {
		call(t, "DELETE", d.url+"/v1/schedules/"+sched.ID, nil, http.StatusNoContent, nil)
	}
	d.restart()
	var replayed int64
	for _, dec := range decisions(t, d.url) {
		replayed = max(replayed, dec.Seq)
	}
	if replayed < lastSeq {
		t.Fatalf("after restart the log replays through seq %d, want >= %d", replayed, lastSeq)
	}
}

// testCluster runs three fleet nodes and a standalone oracle: routed
// reads must match the oracle, a job must survive killing the owner,
// a full partition must answer a fast 503, and retries must absorb
// injected transport faults.
func testCluster(t *testing.T) {
	dir := t.TempDir()
	var urls []string
	var ports []int
	for range 3 {
		ports = append(ports, freePort(t))
		urls = append(urls, urlOf(ports[len(ports)-1]))
	}
	var nodes []*daemon
	for i, port := range ports {
		name := fmt.Sprintf("node%d", i+1)
		nodes = append(nodes, newDaemon(t, name, port, "-store-dir", filepath.Join(dir, name),
			"-peers", strings.Join(urls, ","), "-self", urls[i],
			"-peer-timeout", "1s", "-peer-retries", "2", "-peer-probe-interval", "200ms",
			"-peer-breaker-threshold", "2", "-peer-breaker-cooldown", "30s"))
	}
	oracle := startDaemon(t, "oracle")
	for _, n := range nodes {
		n.healthy()
	}
	var health struct{ Node, State string }
	call(t, "GET", nodes[0].url+"/healthz", nil, http.StatusOK, &health)
	if health.Node != nodes[0].node || health.State != "ready" {
		t.Fatalf("healthz reports node %q state %q, want %q ready", health.Node, health.State, nodes[0].node)
	}

	up := upload(t, nodes[0].url, org400)
	digest := up.Digest
	var holders []int
	eventually(t, "the owner and a replica to hold the upload", func() bool {
		holders = holders[:0]
		for i, n := range nodes {
			if call(t, "GET", n.url+"/v1/datasets/"+digest+"/raw", nil, 0, nil).code == http.StatusOK {
				holders = append(holders, i)
			}
		}
		return len(holders) >= 2
	})
	owner, replica, outsider := -1, -1, -1
	for i := range nodes {
		switch {
		case urls[i] == up.Owner:
			owner = i
		case slices.Contains(holders, i):
			replica = i
		default:
			outsider = i
		}
	}
	if owner < 0 || !slices.Contains(holders, owner) || replica < 0 || outsider < 0 {
		t.Fatalf("owner %q, holders %v: want the owner, one replica and one outsider", up.Owner, holders)
	}

	if o := upload(t, oracle.url, org400); o.Digest != digest {
		t.Fatalf("oracle digest %s, fleet digest %s", o.Digest, digest)
	}
	want := call(t, "POST", oracle.url+"/v1/analyze", byRef(digest), http.StatusOK, nil).body
	got := call(t, "POST", nodes[outsider].url+"/v1/analyze", byRef(digest), http.StatusOK, nil).body
	if !bytes.Equal(zeroDurations(got), zeroDurations(want)) {
		t.Fatal("fetch-through analyze on the outsider differs from the oracle")
	}

	var job struct{ ID string }
	call(t, "POST", nodes[replica].url+"/v1/jobs", map[string]any{"kind": "analyze", "dataset_ref": digest,
		"options": map[string]any{"method": "rolediet", "threshold": 1}}, http.StatusAccepted, &job)
	nodes[owner].kill()
	waitJob(t, nodes[replica].url, job.ID)
	call(t, "GET", nodes[replica].url+"/v1/jobs/"+job.ID+"/result", nil, http.StatusOK, nil)
	call(t, "POST", nodes[replica].url+"/v1/analyze", byRef(digest), http.StatusOK, nil)

	// With both holders dead and the outsider's fetched copy deleted, a
	// fresh threshold misses the result cache and must fail fast.
	nodes[replica].kill()
	call(t, "DELETE", nodes[outsider].url+"/v1/datasets/"+digest, nil, http.StatusOK, nil)
	start := time.Now()
	r := callErr(t, "POST", nodes[outsider].url+"/v1/analyze?threshold=2", byRef(digest), http.StatusServiceUnavailable, "peer_unavailable")
	if took := time.Since(start); took > 15*time.Second || r.header.Get("Retry-After") == "" {
		t.Fatalf("partitioned analyze took %s with Retry-After %q, want < 15s and set", took, r.header.Get("Retry-After"))
	}
	var stats struct {
		Fleet struct {
			Peers []struct{ Breaker struct{ State string } }
		}
		Skipped []json.RawMessage
	}
	call(t, "GET", nodes[outsider].url+"/v1/fleet/stats", nil, http.StatusOK, &stats)
	open := false
	for _, p := range stats.Fleet.Peers {
		open = open || p.Breaker.State == "open"
	}
	if !open || len(stats.Skipped) == 0 {
		t.Fatalf("fleet stats show no open breaker or no skipped peer: %+v", stats)
	}

	// Probing is off, so the two injected drops hit the upload's peer
	// calls; three attempts per call must absorb them.
	port := freePort(t)
	faulty := newDaemon(t, "faulty", port, "-peers", urlOf(port)+","+oracle.url, "-self", urlOf(port),
		"-peer-timeout", "1s", "-peer-retries", "3", "-peer-probe-interval", "-1s", "-fault-inject", "drop:2")
	faulty.healthy()
	up = upload(t, faulty.url, org300)
	if up.Degraded {
		t.Fatal("retries did not absorb the injected faults: upload degraded")
	}
	eventually(t, "the upload to reach the oracle through the faults", func() bool {
		return call(t, "GET", oracle.url+"/v1/datasets/"+up.Digest+"/raw", nil, 0, nil).code == http.StatusOK
	})
}
