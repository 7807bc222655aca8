package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/rbac"
)

// newJobsServer starts a test server whose job manager is torn down
// with the test, so cancelled/abandoned jobs cannot leak CPU into
// later tests.
func newJobsServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	opts.BaseContext = ctx
	srv := httptest.NewServer(NewHandler(opts))
	t.Cleanup(func() {
		srv.Close()
		cancel()
	})
	return srv
}

// orgDatasetJSON renders a scaled-down organisation-shaped dataset
// (the paper's §IV-B generator).
func orgDatasetJSON(t *testing.T) []byte {
	t.Helper()
	ds, _, err := gen.Org(gen.DefaultOrgParams().Scaled(200))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// slowDatasetJSON builds a dataset whose dbscan-float64 analysis takes
// long enough that a test can reliably observe the job running. The
// run time is irrelevant beyond that: cancellation tests never wait
// for completion.
func slowDatasetJSON(t *testing.T) []byte {
	t.Helper()
	const roles, users = 1500, 600
	rng := rand.New(rand.NewSource(42))
	ds := rbac.NewDataset()
	for u := 0; u < users; u++ {
		ds.EnsureUser(rbac.UserID(fmt.Sprintf("u%04d", u)))
	}
	for r := 0; r < roles; r++ {
		role := rbac.RoleID(fmt.Sprintf("r%04d", r))
		ds.EnsureRole(role)
		for u := 0; u < users; u++ {
			if rng.Float64() < 0.05 {
				ds.AssignUser(role, rbac.UserID(fmt.Sprintf("u%04d", u)))
			}
		}
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// envelope builds a /v1/jobs (or sync v1) request body.
func envelope(t *testing.T, kind string, dataset []byte, options string) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("{")
	if kind != "" {
		fmt.Fprintf(&b, "%q:%q,", "kind", kind)
	}
	if options != "" {
		fmt.Fprintf(&b, "%q:%s,", "options", options)
	}
	b.WriteString(`"dataset":`)
	b.Write(dataset)
	b.WriteString("}")
	return b.Bytes()
}

// submitJob POSTs to /v1/jobs and decodes the accepted snapshot.
func submitJob(t *testing.T, srv *httptest.Server, body []byte) jobs.Snapshot {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.Status != jobs.StatusQueued {
		t.Fatalf("submit snapshot = %+v", snap)
	}
	return snap
}

// getJob fetches a job snapshot, failing the test on non-200.
func getJob(t *testing.T, srv *httptest.Server, id string) jobs.Snapshot {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status fetch = %d", resp.StatusCode)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// pollUntilTerminal polls a job until it finishes, asserting progress
// never decreases along the way.
func pollUntilTerminal(t *testing.T, srv *httptest.Server, id string) jobs.Snapshot {
	t.Helper()
	last := -1.0
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		snap := getJob(t, srv, id)
		if snap.Progress.Fraction < last {
			t.Fatalf("progress regressed: %v -> %v (stage %s)", last, snap.Progress.Fraction, snap.Progress.Stage)
		}
		last = snap.Progress.Fraction
		if snap.Status.Terminal() {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return jobs.Snapshot{}
}

// zeroDurations clears the timing fields so sync and async reports of
// the same analysis compare equal.
func zeroDurations(rep *core.Report) {
	rep.LinearScanDuration = 0
	rep.SameGroupsDuration = 0
	rep.SimilarGroupDuration = 0
}

// TestJobLifecycleEndToEnd drives submit -> poll (monotonic progress)
// -> result over an organisation-shaped dataset and requires the async
// result to equal the synchronous endpoint's report for the same
// dataset and options.
func TestJobLifecycleEndToEnd(t *testing.T) {
	srv := newJobsServer(t, Options{})
	dataset := orgDatasetJSON(t)
	const options = `{"method":"rolediet","threshold":1}`

	snap := submitJob(t, srv, envelope(t, "analyze", dataset, options))
	final := pollUntilTerminal(t, srv, snap.ID)
	if final.Status != jobs.StatusDone {
		t.Fatalf("final status = %s (error %q)", final.Status, final.Error)
	}
	if final.Progress.Fraction != 1 {
		t.Fatalf("final fraction = %v, want 1", final.Progress.Fraction)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	var async core.Report
	if err := json.NewDecoder(resp.Body).Decode(&async); err != nil {
		t.Fatal(err)
	}

	syncResp, err := http.Post(srv.URL+"/v1/analyze", "application/json",
		bytes.NewReader(envelope(t, "", dataset, options)))
	if err != nil {
		t.Fatal(err)
	}
	defer syncResp.Body.Close()
	if syncResp.StatusCode != http.StatusOK {
		t.Fatalf("sync status = %d", syncResp.StatusCode)
	}
	var sync core.Report
	if err := json.NewDecoder(syncResp.Body).Decode(&sync); err != nil {
		t.Fatal(err)
	}

	zeroDurations(&async)
	zeroDurations(&sync)
	if !reflect.DeepEqual(async, sync) {
		t.Fatalf("async report differs from sync report:\nasync: %+v\nsync:  %+v", async, sync)
	}
}

// TestJobConsolidateAndSuggestKinds exercises the two other kinds
// through the same lifecycle, comparing against their sync endpoints.
func TestJobConsolidateAndSuggestKinds(t *testing.T) {
	srv := newJobsServer(t, Options{})
	dataset := figure1Body(t).Bytes()
	for _, kind := range []string{"consolidate", "suggest"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			snap := submitJob(t, srv, envelope(t, kind, dataset, ""))
			final := pollUntilTerminal(t, srv, snap.ID)
			if final.Status != jobs.StatusDone {
				t.Fatalf("final status = %s (error %q)", final.Status, final.Error)
			}
			resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			asyncBody := new(bytes.Buffer)
			if _, err := asyncBody.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			syncResp, err := http.Post(srv.URL+"/v1/"+kind, "application/json", bytes.NewReader(dataset))
			if err != nil {
				t.Fatal(err)
			}
			defer syncResp.Body.Close()
			syncBody := new(bytes.Buffer)
			if _, err := syncBody.ReadFrom(syncResp.Body); err != nil {
				t.Fatal(err)
			}
			var asyncVal, syncVal any
			if err := json.Unmarshal(asyncBody.Bytes(), &asyncVal); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(syncBody.Bytes(), &syncVal); err != nil {
				t.Fatal(err)
			}
			stripDurations(asyncVal)
			stripDurations(syncVal)
			if !reflect.DeepEqual(asyncVal, syncVal) {
				t.Fatalf("async %s result differs from sync:\nasync: %s\nsync:  %s", kind, asyncBody, syncBody)
			}
		})
	}
}

// stripDurations removes *DurationNanos keys from decoded JSON so
// timing noise does not break result equality.
func stripDurations(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			if strings.HasSuffix(k, "DurationNanos") {
				delete(x, k)
				continue
			}
			stripDurations(sub)
		}
	case []any:
		for _, sub := range x {
			stripDurations(sub)
		}
	}
}

// TestJobCancelFreesWorker cancels a running job and requires (a) the
// job to land in canceled within bounded time and (b) the single
// worker slot to be reusable for a fresh job afterwards.
func TestJobCancelFreesWorker(t *testing.T) {
	srv := newJobsServer(t, Options{JobWorkers: 1})
	slow := slowDatasetJSON(t)
	slowOpts := `{"method":"dbscan-float64","threshold":1}`

	snap := submitJob(t, srv, envelope(t, "analyze", slow, slowOpts))

	// Wait for the worker to pick it up, then cancel mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := getJob(t, srv, snap.ID)
		if s.Status == jobs.StatusRunning {
			break
		}
		if s.Status.Terminal() {
			t.Fatalf("job finished before it could be cancelled: %+v", s)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	delReq, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", delResp.StatusCode)
	}

	final := pollUntilTerminal(t, srv, snap.ID)
	if final.Status != jobs.StatusCanceled {
		t.Fatalf("status after cancel = %s", final.Status)
	}

	// The canceled run's result maps to the canceled error code.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Code != CodeCanceled {
		t.Fatalf("canceled result = %d/%s", resp.StatusCode, eb.Code)
	}

	// Worker slot is free again: a quick job must complete.
	quick := submitJob(t, srv, envelope(t, "analyze", figure1Body(t).Bytes(), ""))
	if final := pollUntilTerminal(t, srv, quick.ID); final.Status != jobs.StatusDone {
		t.Fatalf("post-cancel job = %s (error %q)", final.Status, final.Error)
	}
}

// TestJobQueueFullSheds fills the single-worker, depth-1 queue and
// requires the next submission to shed with 429/shed + Retry-After.
func TestJobQueueFullSheds(t *testing.T) {
	srv := newJobsServer(t, Options{JobWorkers: 1, JobQueueDepth: 1})
	slow := slowDatasetJSON(t)
	slowOpts := `{"method":"dbscan-float64","threshold":1}`
	body := envelope(t, "analyze", slow, slowOpts)

	running := submitJob(t, srv, body)
	// Ensure the worker holds the first job so the second stays queued.
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, srv, running.ID).Status != jobs.StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued := submitJob(t, srv, body)

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != CodeShed {
		t.Fatalf("code = %q, want %q", eb.Code, CodeShed)
	}

	// Cleanup: cancel both jobs so teardown is immediate.
	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestJobResultExpiry requires finished results to 404 with not_found
// once the TTL lapses.
func TestJobResultExpiry(t *testing.T) {
	srv := newJobsServer(t, Options{JobResultTTL: 30 * time.Millisecond})
	snap := submitJob(t, srv, envelope(t, "analyze", figure1Body(t).Bytes(), ""))
	if final := pollUntilTerminal(t, srv, snap.ID); final.Status != jobs.StatusDone {
		t.Fatalf("job = %s (error %q)", final.Status, final.Error)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		status := resp.StatusCode
		var eb errorBody
		if status != http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&eb)
		}
		resp.Body.Close()
		if status == http.StatusNotFound {
			if eb.Code != CodeNotFound {
				t.Fatalf("expired code = %q", eb.Code)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("result never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobSubmissionErrors pins the submit-side error contract.
func TestJobSubmissionErrors(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()
	cases := []struct {
		name     string
		body     string
		want     int
		wantCode string
	}{
		{"missing kind", string(envelope(t, "", fig1, "")), http.StatusBadRequest, CodeBadRequest},
		{"unknown kind", string(envelope(t, "mine-roles", fig1, "")), http.StatusBadRequest, CodeBadRequest},
		{"bad options method", string(envelope(t, "analyze", fig1, `{"method":"kmeans"}`)), http.StatusBadRequest, CodeBadRequest},
		{"negative threshold", string(envelope(t, "analyze", fig1, `{"threshold":-1}`)), http.StatusBadRequest, CodeBadRequest},
		{"no dataset", `{"kind":"analyze"}`, http.StatusBadRequest, CodeBadRequest},
		{"broken json", `{nope`, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if eb.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q", eb.Code, tc.wantCode)
			}
		})
	}
}

// TestJobStatusAndResultErrors pins the read-side error contract:
// unknown ids 404, unfinished results 409, double cancel 409.
func TestJobStatusAndResultErrors(t *testing.T) {
	srv := newJobsServer(t, Options{JobWorkers: 1})

	// Unknown id.
	resp, err := http.Get(srv.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || eb.Code != CodeNotFound {
		t.Fatalf("unknown id = %d/%s", resp.StatusCode, eb.Code)
	}

	// Result of a still-running job is a conflict.
	slow := submitJob(t, srv,
		envelope(t, "analyze", slowDatasetJSON(t), `{"method":"dbscan-float64","threshold":1}`))
	resp, err = http.Get(srv.URL + "/v1/jobs/" + slow.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || eb.Code != CodeConflict {
		t.Fatalf("unfinished result = %d/%s", resp.StatusCode, eb.Code)
	}

	// Cancel it, then cancel again: the second is a conflict.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+slow.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	final := pollUntilTerminal(t, srv, slow.ID)
	if final.Status != jobs.StatusCanceled {
		t.Fatalf("status = %s", final.Status)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+slow.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || eb.Code != CodeConflict {
		t.Fatalf("double cancel = %d/%s", resp.StatusCode, eb.Code)
	}
}
