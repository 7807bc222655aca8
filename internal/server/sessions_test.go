package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rbac"
	"repro/internal/replay"
	"repro/internal/session"
)

// createSession opens a session over digest and returns the decoded
// response.
func createSession(t *testing.T, srv *httptest.Server, digest string, wantStatus int) sessionCreateResponse {
	t.Helper()
	body := []byte(fmt.Sprintf(`{"base_ref":%q}`, digest))
	resp, raw := postJSON(t, srv, "/v1/sessions", body, nil)
	if resp.StatusCode != wantStatus {
		t.Fatalf("session create = %d (body %s), want %d", resp.StatusCode, raw, wantStatus)
	}
	var out sessionCreateResponse
	if wantStatus == http.StatusCreated {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if loc := resp.Header.Get("Location"); loc != "/v1/sessions/"+out.ID {
			t.Fatalf("Location = %q, want /v1/sessions/%s", loc, out.ID)
		}
	}
	return out
}

// eventLog renders events as the JSONL wire format.
func eventLog(t *testing.T, events []replay.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := replay.WriteLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// auditGroupSet canonicalises audit group lists for set comparison.
func auditGroupSet(groups [][]rbac.RoleID) map[string]bool {
	out := make(map[string]bool, len(groups))
	for _, g := range groups {
		ids := make([]string, len(g))
		for i, id := range g {
			ids[i] = string(id)
		}
		sort.Strings(ids)
		out[strings.Join(ids, "|")] = true
	}
	return out
}

// TestSessionLifecycle drives the whole mutation-session surface:
// create from a registered base, apply an event batch, audit off the
// live index, and require the audit to be set-identical to a full
// engine analysis of the same mutations applied offline — then close
// the session and see it 404.
func TestSessionLifecycle(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()
	digest := uploadDataset(t, srv, fig1, http.StatusCreated)
	created := createSession(t, srv, digest, http.StatusCreated)
	if created.Base != digest || created.Events != 0 {
		t.Fatalf("fresh session = %+v", created.Info)
	}

	// R90/R91 duplicate each other on both sides; a full engine run
	// over the same offline mutation is the ground truth.
	events := []replay.Event{
		{Op: replay.OpAddRole, Role: "R90"},
		{Op: replay.OpAddRole, Role: "R91"},
		{Op: replay.OpAssignUser, Role: "R90", User: "U01"},
		{Op: replay.OpAssignUser, Role: "R91", User: "U01"},
		{Op: replay.OpAssignPermission, Role: "R90", Permission: "P01"},
		{Op: replay.OpAssignPermission, Role: "R91", Permission: "P01"},
	}
	resp, raw := postJSON(t, srv, "/v1/sessions/"+created.ID+"/events", eventLog(t, events), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d (body %s)", resp.StatusCode, raw)
	}
	var ack sessionEventsResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Applied != len(events) || ack.Events != len(events) {
		t.Fatalf("applied %d/%d events, lifetime %d", ack.Applied, len(events), ack.Events)
	}

	respAudit, rawAudit := srvGet(t, srv, "/v1/sessions/"+created.ID+"/audit")
	if respAudit.StatusCode != http.StatusOK {
		t.Fatalf("audit = %d (body %s)", respAudit.StatusCode, rawAudit)
	}
	var audit session.Audit
	if err := json.Unmarshal(rawAudit, &audit); err != nil {
		t.Fatal(err)
	}

	offline, err := rbac.ReadJSON(bytes.NewReader(fig1))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		if err := replay.Apply(offline, e); err != nil {
			t.Fatalf("offline event %d: %v", i, err)
		}
	}
	report, err := core.AnalyzeContext(context.Background(), offline, core.Options{SkipSimilar: true})
	if err != nil {
		t.Fatal(err)
	}
	wantUser := make([][]rbac.RoleID, 0, len(report.SameUserGroups))
	for _, g := range report.SameUserGroups {
		wantUser = append(wantUser, g.Roles)
	}
	wantPerm := make([][]rbac.RoleID, 0, len(report.SamePermissionGroups))
	for _, g := range report.SamePermissionGroups {
		wantPerm = append(wantPerm, g.Roles)
	}
	if got, want := auditGroupSet(audit.SameUserGroups), auditGroupSet(wantUser); len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("same-user audit %v != engine %v", got, want)
	}
	if got, want := auditGroupSet(audit.SamePermissionGroups), auditGroupSet(wantPerm); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("same-permission audit %v != engine %v", got, want)
	}

	// Async audits ride the jobs lifecycle and agree with sync.
	respAsync, rawAsync := srvGet(t, srv, "/v1/sessions/"+created.ID+"/audit?mode=async")
	if respAsync.StatusCode != http.StatusAccepted {
		t.Fatalf("async audit = %d (body %s)", respAsync.StatusCode, rawAsync)
	}
	loc := respAsync.Header.Get("Location")
	var asyncBody []byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, err := http.Get(srv.URL + loc + "/result")
		if err != nil {
			t.Fatal(err)
		}
		b2 := readAll(t, r2)
		if r2.StatusCode == http.StatusOK {
			asyncBody = b2
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async audit never finished: %d %s", r2.StatusCode, b2)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var asyncAudit session.Audit
	if err := json.Unmarshal(asyncBody, &asyncAudit); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(auditGroupSet(asyncAudit.SameUserGroups)) != fmt.Sprint(auditGroupSet(audit.SameUserGroups)) {
		t.Fatalf("async audit differs from sync:\nasync: %s\nsync:  %s", asyncBody, rawAudit)
	}

	// Close; further lookups 404.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+created.ID, nil)
	respDel, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respDel.Body.Close()
	if respDel.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", respDel.StatusCode)
	}
	respGone, _ := postJSON(t, srv, "/v1/sessions/"+created.ID+"/events", eventLog(t, events[:1]), nil)
	if respGone.StatusCode != http.StatusNotFound {
		t.Fatalf("events on closed session = %d, want 404", respGone.StatusCode)
	}
}

// readAll drains a response body.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionCreateValidation covers the create-time error surface:
// missing/malformed refs, unknown digests, and the session cap.
func TestSessionCreateValidation(t *testing.T) {
	srv := newJobsServer(t, Options{MaxSessions: 1})
	digest := uploadDataset(t, srv, figure1Body(t).Bytes(), http.StatusCreated)

	for _, bad := range []string{`{}`, `{"base_ref":"zzz"}`, `not json`} {
		resp, _ := postJSON(t, srv, "/v1/sessions", []byte(bad), nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create with %s = %d, want 400", bad, resp.StatusCode)
		}
	}
	unknown := strings.Repeat("0", 64)
	resp, _ := postJSON(t, srv, "/v1/sessions", []byte(fmt.Sprintf(`{"base_ref":%q}`, unknown)), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("create over unknown digest = %d, want 404", resp.StatusCode)
	}

	createSession(t, srv, digest, http.StatusCreated)
	respFull, rawFull := postJSON(t, srv, "/v1/sessions", []byte(fmt.Sprintf(`{"base_ref":%q}`, digest)), nil)
	if respFull.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create past cap = %d (body %s), want 429", respFull.StatusCode, rawFull)
	}
	if respFull.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestSessionEventLogBomb mirrors the gzip-bomb test for the event
// channel: an overlong line and an over-count batch must both be
// refused with 400 payload_too_large before any event applies.
func TestSessionEventLogBomb(t *testing.T) {
	srv := newJobsServer(t, Options{MaxLogEvents: 2})
	digest := uploadDataset(t, srv, figure1Body(t).Bytes(), http.StatusCreated)
	s := createSession(t, srv, digest, http.StatusCreated)

	requireBomb := func(label string, body []byte) {
		t.Helper()
		resp, raw := postJSON(t, srv, "/v1/sessions/"+s.ID+"/events", body, nil)
		var e struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s: unmarshal error body %s: %v", label, raw, err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Code != CodePayloadTooLarge {
			t.Fatalf("%s = %d code %q (body %.200s), want 400 payload_too_large", label, resp.StatusCode, e.Code, raw)
		}
	}

	// One line longer than the 1 MiB line cap.
	requireBomb("overlong line", []byte(`{"op":"add-role","role":"`+strings.Repeat("x", 2<<20)+`"}`+"\n"))

	// More events than the batch cap.
	requireBomb("over-count batch", eventLog(t, []replay.Event{
		{Op: replay.OpAddRole, Role: "B1"},
		{Op: replay.OpAddRole, Role: "B2"},
		{Op: replay.OpAddRole, Role: "B3"},
	}))

	// Neither bomb applied anything.
	respInfo, rawInfo := srvGet(t, srv, "/v1/sessions/"+s.ID+"/audit")
	if respInfo.StatusCode != http.StatusOK {
		t.Fatalf("audit = %d", respInfo.StatusCode)
	}
	var audit session.Audit
	if err := json.Unmarshal(rawInfo, &audit); err != nil {
		t.Fatal(err)
	}
	if audit.Events != 0 {
		t.Fatalf("bombs applied %d events, want 0 (body %s)", audit.Events, rawInfo)
	}
}

// TestSessionEventBombConnectionClose posts the one-line event bomb
// from a client that closes the connection after each request. Without
// keep-alive net/http drains none of the body the log reader left
// unread, so the server must discard it itself before answering, or the
// client's write is reset and it never sees the 400. The client's small
// socket send buffer keeps it writing the rest of the bomb when the
// server answers, as a client on a slower link would be.
func TestSessionEventBombConnectionClose(t *testing.T) {
	srv := newJobsServer(t, Options{})
	digest := uploadDataset(t, srv, figure1Body(t).Bytes(), http.StatusCreated)
	s := createSession(t, srv, digest, http.StatusCreated)
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil {
			err = c.(*net.TCPConn).SetWriteBuffer(8 << 10)
		}
		return c, err
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true, DialContext: dial}}
	defer client.CloseIdleConnections()
	bomb := []byte(`{"op":"add-role","role":"` + strings.Repeat("x", 20000*64) + "\"}\n")
	for i := 0; i < 20; i++ {
		resp, err := client.Post(srv.URL+"/v1/sessions/"+s.ID+"/events", "application/x-ndjson", bytes.NewReader(bomb))
		if err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		eb := decodeErrorBody(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || eb.Code != CodePayloadTooLarge {
			t.Fatalf("post %d = %d code %q, want 400 payload_too_large", i, resp.StatusCode, eb.Code)
		}
	}
}

// TestSessionEventsPartialApply: a batch failing mid-way answers 422,
// reports the applied prefix, and the session keeps that prefix.
func TestSessionEventsPartialApply(t *testing.T) {
	srv := newJobsServer(t, Options{})
	digest := uploadDataset(t, srv, figure1Body(t).Bytes(), http.StatusCreated)
	s := createSession(t, srv, digest, http.StatusCreated)

	batch := []replay.Event{
		{Op: replay.OpAddRole, Role: "PX1"},
		{Op: replay.OpAssignUser, Role: "ghost", User: "U01"}, // fails
		{Op: replay.OpAddRole, Role: "PX2"},
	}
	resp, raw := postJSON(t, srv, "/v1/sessions/"+s.ID+"/events", eventLog(t, batch), nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("partial batch = %d (body %s), want 422", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "applied 1 of 3") {
		t.Fatalf("422 body does not report the prefix: %s", raw)
	}
	respInfo, rawInfo := srvGet(t, srv, "/v1/sessions/"+s.ID+"/audit")
	if respInfo.StatusCode != http.StatusOK {
		t.Fatalf("audit = %d", respInfo.StatusCode)
	}
	var audit session.Audit
	if err := json.Unmarshal(rawInfo, &audit); err != nil {
		t.Fatal(err)
	}
	if audit.Events != 1 {
		t.Fatalf("session kept %d events, want the 1-event prefix", audit.Events)
	}
}

// TestStreamingUploadRejects: an upload past -max-upload-bytes fails
// with 400 payload_too_large, a truncated body with 400 bad_request,
// and in both cases the registry admits nothing partial.
func TestStreamingUploadRejects(t *testing.T) {
	fig1 := figure1Body(t).Bytes()
	srv := newJobsServer(t, Options{MaxUploadBytes: int64(len(fig1)) / 2})

	requireEmptyRegistry := func(label string) {
		t.Helper()
		resp, raw := srvGet(t, srv, "/v1/datasets")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: list = %d", label, resp.StatusCode)
		}
		var list struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(raw, &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Items) != 0 {
			t.Fatalf("%s: registry admitted %d datasets from a rejected upload", label, len(list.Items))
		}
	}

	resp, raw := postJSON(t, srv, "/v1/datasets", fig1, nil)
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Code != CodePayloadTooLarge {
		t.Fatalf("oversized upload = %d code %q, want 400 payload_too_large", resp.StatusCode, e.Code)
	}
	requireEmptyRegistry("oversized")

	respTrunc, _ := postJSON(t, srv, "/v1/datasets", fig1[:len(fig1)/2], nil)
	if respTrunc.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated upload = %d, want 400", respTrunc.StatusCode)
	}
	requireEmptyRegistry("truncated")

	// Exactly at the limit is fine: the cap is inclusive.
	exact := newJobsServer(t, Options{MaxUploadBytes: int64(len(fig1))})
	uploadDataset(t, exact, fig1, http.StatusCreated)
}

// srvGet GETs a path and returns response + body.
func srvGet(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp, readAll(t, resp)
}

// TestDriftEndpoint: /v1/drift reports the movement between two
// registered snapshots, flows through the single-flight cache (miss
// then hit, byte-identical), and rejects incomplete requests.
func TestDriftEndpoint(t *testing.T) {
	srv := newJobsServer(t, Options{})
	before := uploadDataset(t, srv, figure1Body(t).Bytes(), http.StatusCreated)
	after := uploadDataset(t, srv, figure1Variant(t), http.StatusCreated)

	body := []byte(fmt.Sprintf(`{"before_ref":%q,"after_ref":%q}`, before, after))
	resp1, raw1 := postJSON(t, srv, "/v1/drift", body, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("drift = %d (body %s)", resp1.StatusCode, raw1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first drift X-Cache = %q, want miss", got)
	}
	var report session.DriftReport
	if err := json.Unmarshal(raw1, &report); err != nil {
		t.Fatal(err)
	}
	if report.BeforeRef != before || report.AfterRef != after || report.Events == 0 {
		t.Fatalf("drift report = %+v", report)
	}

	resp2, raw2 := postJSON(t, srv, "/v1/drift", body, nil)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second drift X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("cached drift response differs from computed one")
	}

	for _, bad := range []string{`{}`, fmt.Sprintf(`{"before_ref":%q}`, before)} {
		respBad, _ := postJSON(t, srv, "/v1/drift", []byte(bad), nil)
		if respBad.StatusCode != http.StatusBadRequest {
			t.Errorf("drift with %s = %d, want 400", bad, respBad.StatusCode)
		}
	}
}
