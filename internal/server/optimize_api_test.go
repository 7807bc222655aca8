package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/consolidate"
	"repro/internal/optimize"
	"repro/internal/rbac"
)

// postOptimize runs one POST /v1/optimize and decodes the result.
func postOptimize(t *testing.T, srv *httptest.Server, path string, body []byte) (*http.Response, []byte, *optimize.Result) {
	t.Helper()
	resp, raw := postJSON(t, srv, path, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status = %d (%s)", resp.StatusCode, raw)
	}
	var res optimize.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode optimize result: %v", err)
	}
	return resp, raw, &res
}

// TestOptimizeSyncE2E pins the synchronous surface: a bare Figure 1
// body yields a non-empty plan whose optimized dataset preserves the
// input's reachability, and an identical re-POST is a byte-identical
// cache hit.
func TestOptimizeSyncE2E(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()

	resp, raw, res := postOptimize(t, srv, "/v1/optimize", fig1)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first optimize X-Cache = %q, want miss", got)
	}
	if len(res.Plan.Actions) == 0 {
		t.Fatal("Figure 1 has known inefficiencies but the plan is empty")
	}
	if res.After.Roles >= res.Before.Roles {
		t.Fatalf("roles %d -> %d, want a reduction", res.Before.Roles, res.After.Roles)
	}
	if err := consolidate.VerifySafety(rbac.Figure1(), res.Optimized); err != nil {
		t.Fatalf("served plan broke reachability: %v", err)
	}

	resp2, raw2, _ := postOptimize(t, srv, "/v1/optimize", fig1)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat optimize X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("cached optimize response is not byte-identical")
	}
}

// TestOptimizeKnobCacheLines pins the fingerprint contract: the same
// dataset with different planner knobs occupies different cache lines,
// while the envelope and query-parameter spellings of the same knobs
// share one.
func TestOptimizeKnobCacheLines(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()

	_, plain, _ := postOptimize(t, srv, "/v1/optimize", fig1)

	env := append([]byte(`{"optimize":{"mine":true},"dataset":`), fig1...)
	env = append(env, '}')
	respMine, mined, _ := postOptimize(t, srv, "/v1/optimize", env)
	if got := respMine.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("mine:true after plain run X-Cache = %q, want miss (own cache line)", got)
	}

	// The query-parameter spelling lands on the envelope's line.
	respQ, minedQ, _ := postOptimize(t, srv, "/v1/optimize?mine=true", fig1)
	if got := respQ.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("?mine=true X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(mined, minedQ) {
		t.Fatal("query-knob response differs from envelope-knob response")
	}
	_ = plain
}

// TestOptimizePlanPagination uploads a dataset, then pages through the
// plan action view one action at a time, reassembling exactly the plan
// the POST surface returned.
func TestOptimizePlanPagination(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()
	digest := uploadDataset(t, srv, fig1, http.StatusCreated)

	_, _, res := postOptimize(t, srv, "/v1/optimize", []byte(fmt.Sprintf(`{"dataset_ref":%q}`, digest)))
	want, err := json.Marshal(res.Plan.Actions)
	if err != nil {
		t.Fatal(err)
	}

	var got []json.RawMessage
	token := ""
	pages := 0
	for {
		url := srv.URL + "/v1/optimize/" + digest + "/plan?page_size=1"
		if token != "" {
			url += "&page_token=" + token
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan page status = %d (%s)", resp.StatusCode, body)
		}
		if hdr := resp.Header.Get("X-Cache"); hdr != "hit" {
			t.Fatalf("plan page X-Cache = %q, want hit (plan already computed)", hdr)
		}
		var page struct {
			Items         []json.RawMessage `json:"items"`
			NextPageToken string            `json:"next_page_token"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Items) > 1 {
			t.Fatalf("page_size=1 returned %d items", len(page.Items))
		}
		got = append(got, page.Items...)
		pages++
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if pages < 2 {
		t.Fatalf("expected multiple pages, got %d", pages)
	}
	reassembled, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var a, b []map[string]any
	if err := json.Unmarshal(want, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(reassembled, &b); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("paged view has %d actions, plan has %d", len(b), len(a))
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("paged actions differ from the plan:\n%s\nvs\n%s", bj, aj)
	}
}

// TestOptimizeAsync walks the job lifecycle: ?mode=async answers 202
// with a Location, and the finished job's result is byte-identical to
// the synchronous response.
func TestOptimizeAsync(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()

	_, syncBody, _ := postOptimize(t, srv, "/v1/optimize", fig1)

	resp, body := postJSON(t, srv, "/v1/optimize?mode=async", fig1, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d (%s)", resp.StatusCode, body)
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		t.Fatal("async submit has no Location header")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + loc + "/result")
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			if !bytes.Equal(out, syncBody) {
				t.Fatalf("job result differs from sync response:\n%s\nvs\n%s", out, syncBody)
			}
			return
		}
		if r.StatusCode != http.StatusConflict {
			t.Fatalf("job result status = %d (%s)", r.StatusCode, out)
		}
		if time.Now().After(deadline) {
			t.Fatal("optimize job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOptimizeJobKind submits kind "optimize" through the generic
// /v1/jobs surface.
func TestOptimizeJobKind(t *testing.T) {
	srv := newJobsServer(t, Options{})
	body := envelope(t, "optimize", figure1Body(t).Bytes(), "")
	snap := submitJob(t, srv, body)
	if snap.Kind != "optimize" {
		t.Fatalf("job kind = %q, want optimize", snap.Kind)
	}
}

// TestFleetOptimizePlanFetchesThrough pins the fleet read path for the
// plan view: a node that does not hold the referenced dataset fetches
// it from a holder, computes (or pulls) the plan, and ends up holding
// the dataset locally.
func TestFleetOptimizePlanFetchesThrough(t *testing.T) {
	c := newCluster(t, 3, nil)
	pr := c.upload(t, 0)
	ownerIdx := c.nodeFor(t, pr.Owner)
	c.waitHeld(t, ownerIdx, pr.Digest)

	held := map[string]bool{}
	for _, p := range c.fleets[0].Holders(pr.Digest) {
		held[p] = true
	}
	outsider := -1
	for i, u := range c.urls {
		if !held[u] {
			outsider = i
		}
	}
	if outsider < 0 {
		t.Fatal("no outsider node")
	}

	resp, err := http.Get(c.srvs[outsider].URL + "/v1/optimize/" + pr.Digest + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outsider plan status = %d (%s)", resp.StatusCode, body)
	}
	var page struct {
		Items []optimize.Action `json:"items"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Items) == 0 {
		t.Fatal("fleet-routed plan view is empty for Figure 1")
	}
	if c.rawStatus(t, outsider, pr.Digest) != http.StatusOK {
		t.Fatal("fetch-through did not cache the dataset locally")
	}
}

// TestOptimizeBadKnobs rejects malformed knob query parameters with
// 400 before any engine work.
func TestOptimizeBadKnobs(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()
	for _, q := range []string{"?mine=maybe", "?max_rounds=-1", "?max_candidates=x"} {
		resp, body := postJSON(t, srv, "/v1/optimize"+q, fig1, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s status = %d (%s), want 400", q, resp.StatusCode, body)
		}
	}
}
