package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/consolidate"
	"repro/internal/core"
	"repro/internal/rbac"
	"repro/internal/store"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(Options{}))
	t.Cleanup(srv.Close)
	return srv
}

func figure1Body(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := rbac.Figure1().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
		Node   string `json:"node"`
		State  string `json:"state"`
		Ready  bool   `json:"ready"`
		Boot   string `json:"boot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Fatalf("body = %+v", body)
	}
	if body.Node == "" || body.Boot == "" {
		t.Fatalf("healthz missing node identity: %+v", body)
	}
	if body.State != "ready" || !body.Ready {
		t.Fatalf("healthz not ready: %+v", body)
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rep core.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.SameUserGroups) != 1 || rep.SameUserGroups[0].Roles[0] != "R02" {
		t.Fatalf("report groups = %+v", rep.SameUserGroups)
	}
	if rep.Method != "rolediet" {
		t.Fatalf("method = %q", rep.Method)
	}
}

func TestAnalyzeQueryParameters(t *testing.T) {
	srv := newServer(t)
	// Explicit method + threshold.
	resp, err := http.Post(srv.URL+"/v1/analyze?method=rolediet&threshold=2",
		"application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rep core.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.SimilarThreshold != 2 {
		t.Fatalf("threshold = %d", rep.SimilarThreshold)
	}
}

func TestAnalyzeBadInputs(t *testing.T) {
	srv := newServer(t)
	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"bad json", "/v1/analyze", "{nope", http.StatusBadRequest},
		{"bad method", "/v1/analyze?method=kmeans", "{}", http.StatusBadRequest},
		{"bad threshold", "/v1/analyze?threshold=x", "{}", http.StatusBadRequest},
		{"negative threshold", "/v1/analyze?threshold=-1", "{}", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := tc.body
			if body == "{}" {
				body = figure1Body(t).String()
			}
			resp, err := http.Post(srv.URL+tc.url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var e errorBody
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e.Error == "" {
				t.Fatal("empty error body")
			}
		})
	}
}

// TestAnalyzeRejectsUnsupportedHNSWMetric: the hnsw backend serves only
// Hamming and Manhattan (one distance on bit rows). Any other metric
// kind in the options reaches the engine's validation and comes back as
// a 422 engine error, never a 500 or a silently different distance.
func TestAnalyzeRejectsUnsupportedHNSWMetric(t *testing.T) {
	srv := newServer(t)
	dataset := figure1Body(t).String()
	for _, tc := range []struct {
		metric int
		want   int
	}{
		{0, http.StatusOK},
		{1, http.StatusOK}, // hamming
		{2, http.StatusOK}, // manhattan
		{3, http.StatusUnprocessableEntity},
		{5, http.StatusUnprocessableEntity},
		{-1, http.StatusUnprocessableEntity},
	} {
		body := fmt.Sprintf(`{"options":{"method":"hnsw","group":{"hnsw":{"Metric":%d}}},"dataset":%s}`, tc.metric, dataset)
		resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			resp.Body.Close()
			t.Fatalf("metric %d: status = %d, want %d", tc.metric, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusOK {
			resp.Body.Close()
			continue
		}
		if msg := decodeError(t, resp); !strings.Contains(msg, "metric") {
			t.Fatalf("metric %d: error %q does not name the metric", tc.metric, msg)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestConsolidateEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Post(srv.URL+"/v1/consolidate", "application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Plan         *consolidate.Plan `json:"plan"`
		RolesBefore  int               `json:"rolesBefore"`
		RolesAfter   int               `json:"rolesAfter"`
		Consolidated *rbac.Dataset     `json:"consolidated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RolesBefore != 5 || out.RolesAfter != 4 {
		t.Fatalf("roles %d -> %d", out.RolesBefore, out.RolesAfter)
	}
	if out.Plan.RolesRemoved() != 1 {
		t.Fatalf("plan = %+v", out.Plan)
	}
	if out.Consolidated.NumRoles() != 4 {
		t.Fatalf("consolidated roles = %d", out.Consolidated.NumRoles())
	}
	// The returned dataset must still pass the safety check.
	if err := consolidate.VerifySafety(rbac.Figure1(), out.Consolidated); err != nil {
		t.Fatal(err)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Post(srv.URL+"/v1/suggest?threshold=1", "application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var suggestions []consolidate.Suggestion
	if err := json.NewDecoder(resp.Body).Decode(&suggestions); err != nil {
		t.Fatal(err)
	}
	if len(suggestions) == 0 {
		t.Fatal("no suggestions returned")
	}
	if !suggestions[0].RiskFree() {
		t.Fatalf("first suggestion not risk-free: %+v", suggestions[0])
	}
}

func TestBodySizeLimit(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{MaxBodyBytes: 64}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body status = %d, want 400", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Code != CodePayloadTooLarge {
		t.Fatalf("oversized body code = %q, want %q", eb.Code, CodePayloadTooLarge)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Post(srv.URL+"/v1/query?user=U01&permission=P05",
		"application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Grants    []struct{ Via rbac.RoleID } `json:"grants"`
		HasAccess *bool                       `json:"hasAccess"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.HasAccess == nil || !*out.HasAccess || len(out.Grants) != 1 || out.Grants[0].Via != "R04" {
		t.Fatalf("query response: %+v", out)
	}

	// User-only and permission-only selectors.
	resp2, err := http.Post(srv.URL+"/v1/query?user=U01", "application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("user-only status = %d", resp2.StatusCode)
	}
	resp3, err := http.Post(srv.URL+"/v1/query?permission=P05", "application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("perm-only status = %d", resp3.StatusCode)
	}

	// Errors: no selector; unknown user.
	resp4, err := http.Post(srv.URL+"/v1/query", "application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-selector status = %d", resp4.StatusCode)
	}
	resp5, err := http.Post(srv.URL+"/v1/query?user=ghost", "application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp5.Body.Close()
	if resp5.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("ghost-user status = %d", resp5.StatusCode)
	}
}

func TestDiffEndpoint(t *testing.T) {
	srv := newServer(t)
	before := rbac.Figure1()
	after, _, err := consolidate.Consolidate(before, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := map[string]*rbac.Dataset{"before": before, "after": after}
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/diff", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Improved bool `json:"improved"`
		Counts   struct {
			Deltas []struct {
				Name   string `json:"name"`
				Before int    `json:"before"`
				After  int    `json:"after"`
			} `json:"deltas"`
		} `json:"counts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Improved {
		t.Fatalf("consolidation not reported as improvement: %+v", out)
	}

	// Missing halves are rejected.
	resp2, err := http.Post(srv.URL+"/v1/diff", "application/json",
		strings.NewReader(`{"before":null,"after":null}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing halves status = %d", resp2.StatusCode)
	}
}

// TestRetiredIgnoreEmptyRowsField: "ignoreEmptyRows" has left the
// options schema. Options keep the result-cache fingerprints they had
// while it existed, and a body still carrying it is served like one
// without it, from the same cache line.
func TestRetiredIgnoreEmptyRowsField(t *testing.T) {
	for _, tc := range []struct {
		opts core.Options
		want string
	}{
		{core.Options{}, "d0ce56966b4a11f00544a04a177e9843b884690a6a66ae1d25e5d9d2a59ca1f5"},
		{core.Options{Method: core.MethodHNSW, SimilarThreshold: 2, Group: core.GroupOptions{HNSWSearchEf: 32, Workers: 2}},
			"b83ecdd8b64d6f730b0a41cc8cac4491dc18fe624a0598cf419f01e694d43612"},
	} {
		fp, err := store.Fingerprint(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if fp != tc.want {
			t.Errorf("Fingerprint(%+v) = %s, want %s", tc.opts, fp, tc.want)
		}
	}

	srv := newServer(t)
	dataset := figure1Body(t).String()
	read := func(body, wantCache string) []byte {
		t.Helper()
		resp := post(t, srv, "/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != wantCache {
			t.Fatalf("X-Cache = %q, want %q", got, wantCache)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := read(`{"options":{"threshold":2},"dataset":`+dataset+`}`, "miss")
	withField := read(`{"options":{"threshold":2,"group":{"ignoreEmptyRows":true}},"dataset":`+dataset+`}`, "hit")
	if !bytes.Equal(plain, withField) {
		t.Fatalf("body with ignoreEmptyRows differs:\n%s\n%s", plain, withField)
	}
}
