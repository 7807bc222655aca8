package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rbac"
	"repro/internal/store"
)

// postJSON sends body to path with optional extra headers and returns
// the response with its fully-read body.
func postJSON(t *testing.T, srv *httptest.Server, path string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// uploadDataset registers a dataset and returns its digest.
func uploadDataset(t *testing.T, srv *httptest.Server, dataset []byte, wantStatus int) string {
	t.Helper()
	resp, body := postJSON(t, srv, "/v1/datasets", dataset, nil)
	if resp.StatusCode != wantStatus {
		t.Fatalf("upload status = %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
	}
	var ack struct {
		Digest  string `json:"digest"`
		Created bool   `json:"created"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ParseDigest(ack.Digest); err != nil {
		t.Fatalf("upload digest %q: %v", ack.Digest, err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/datasets/"+ack.Digest {
		t.Fatalf("Location = %q", loc)
	}
	return ack.Digest
}

// figure1Variant is Figure 1 plus one extra role/user pair, so diffs
// between the two have non-empty structural output.
func figure1Variant(t *testing.T) []byte {
	t.Helper()
	ds := rbac.Figure1()
	ds.EnsureRole("R99")
	ds.EnsureUser("u99")
	ds.AssignUser("R99", "u99")
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func serverStats(t *testing.T, srv *httptest.Server) store.Stats {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var out struct {
		Store store.Stats `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Store
}

// TestDatasetLifecycleE2E walks the registry end to end: upload,
// analyze by reference (sync and as a job), diff two stored snapshots,
// delete, and the 404 afterwards.
func TestDatasetLifecycleE2E(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()

	digest := uploadDataset(t, srv, fig1, http.StatusCreated)
	// Same content re-registers idempotently under the same digest.
	if again := uploadDataset(t, srv, fig1, http.StatusOK); again != digest {
		t.Fatalf("re-upload digest = %s, want %s", again, digest)
	}

	// The stored snapshot is the canonical bytes the digest hashes to.
	resp, err := http.Get(srv.URL + "/v1/datasets/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	canonical, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get dataset status = %d", resp.StatusCode)
	}
	reparsed, err := rbac.ReadJSON(bytes.NewReader(canonical))
	if err != nil {
		t.Fatalf("canonical snapshot does not parse: %v", err)
	}
	if got, _, err := store.DigestOf(reparsed); err != nil || got != digest {
		t.Fatalf("served snapshot digests to %s (err %v), want %s", got, err, digest)
	}

	// Sync analyze by reference.
	byRef := []byte(fmt.Sprintf(`{"dataset_ref":%q}`, digest))
	resp1, syncBody := postJSON(t, srv, "/v1/analyze", byRef, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("analyze by ref = %d (body %s)", resp1.StatusCode, syncBody)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first analyze X-Cache = %q, want miss", got)
	}

	// The same analysis as a job: accepted, finishes, and its result is
	// byte-identical to the sync response (it is a cache hit on the same
	// key).
	snap := submitJob(t, srv, []byte(fmt.Sprintf(`{"kind":"analyze","dataset_ref":%q}`, digest)))
	if final := pollUntilTerminal(t, srv, snap.ID); final.Status != "done" {
		t.Fatalf("job status = %s (%s)", final.Status, final.Error)
	}
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	jobBody, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("job result status = %d", resp2.StatusCode)
	}
	if !bytes.Equal(syncBody, jobBody) {
		t.Fatalf("job result differs from sync response:\nsync %s\njob  %s", syncBody, jobBody)
	}

	// Diff two stored snapshots by reference.
	digest2 := uploadDataset(t, srv, figure1Variant(t), http.StatusCreated)
	diffReq := []byte(fmt.Sprintf(`{"before_ref":%q,"after_ref":%q}`, digest, digest2))
	resp3, diffBody := postJSON(t, srv, "/v1/diff", diffReq, nil)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("diff by refs = %d (body %s)", resp3.StatusCode, diffBody)
	}
	var dr struct {
		Structural struct {
			AddedRoles []rbac.RoleID `json:"addedRoles"`
		} `json:"structural"`
	}
	if err := json.Unmarshal(diffBody, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Structural.AddedRoles) != 1 || dr.Structural.AddedRoles[0] != "R99" {
		t.Fatalf("structural addedRoles = %v, want [R99]", dr.Structural.AddedRoles)
	}
	// Re-diffing the same pair is a cache hit with identical bytes.
	resp4, diffBody2 := postJSON(t, srv, "/v1/diff", diffReq, nil)
	if got := resp4.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat diff X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(diffBody, diffBody2) {
		t.Fatal("cached diff body differs from computed one")
	}

	// Delete, then everything addressed by the digest is gone.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/datasets/"+digest, nil)
	resp5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp5.StatusCode)
	}
	for _, probe := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, "/v1/datasets/" + digest, nil},
		{http.MethodDelete, "/v1/datasets/" + digest, nil},
		{http.MethodPost, "/v1/analyze", byRef},
	} {
		req, _ := http.NewRequest(probe.method, srv.URL+probe.path, bytes.NewReader(probe.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Code string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || e.Code != "not_found" {
			t.Fatalf("%s %s after delete = %d code %q, want 404 not_found",
				probe.method, probe.path, resp.StatusCode, e.Code)
		}
	}
}

// TestAnalyzeCacheHitByteIdentical is the acceptance criterion:
// repeating an identical inline /v1/analyze is served from cache — the
// hit counter increments, the engine is not re-invoked — and the body
// is byte-identical to the uncached run.
func TestAnalyzeCacheHitByteIdentical(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()

	before := serverStats(t, srv)
	resp1, body1 := postJSON(t, srv, "/v1/analyze", fig1, nil)
	resp2, body2 := postJSON(t, srv, "/v1/analyze", fig1, nil)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses = %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs:\n1: %s\n2: %s", body1, body2)
	}
	after := serverStats(t, srv)
	if after.Hits != before.Hits+1 {
		t.Fatalf("hits %d -> %d, want +1", before.Hits, after.Hits)
	}
	if after.Misses != before.Misses+1 {
		t.Fatalf("misses %d -> %d, want +1", before.Misses, after.Misses)
	}

	// Different options are a different cache line, not a stale hit.
	resp3, _ := postJSON(t, srv, "/v1/analyze?threshold=3", fig1, nil)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("different-options X-Cache = %q, want miss", got)
	}
}

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGzipRequestBodies exercises Content-Encoding: gzip on the POST
// endpoints: compressed uploads and analyses succeed and share cache
// lines with their identity-encoded twins; unknown encodings answer
// 415 with a stable code; bodies that only fit under the cap while
// compressed are rejected once decompressed.
func TestGzipRequestBodies(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()
	zipped := gzipBytes(t, fig1)
	gzHdr := map[string]string{"Content-Encoding": "gzip"}

	resp, body := postJSON(t, srv, "/v1/analyze", zipped, gzHdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip analyze = %d (body %s)", resp.StatusCode, body)
	}
	// Identity-encoded identical request: same content digest, so this
	// is a cache hit with identical bytes.
	resp2, body2 := postJSON(t, srv, "/v1/analyze", fig1, nil)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("identity twin X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("gzip and identity responses differ")
	}

	// Gzip works on the registry too and digests identically.
	d1 := uploadDataset(t, srv, fig1, http.StatusCreated)
	respUp, upBody := postJSON(t, srv, "/v1/datasets", zipped, gzHdr)
	if respUp.StatusCode != http.StatusOK {
		t.Fatalf("gzip re-upload = %d (body %s)", respUp.StatusCode, upBody)
	}
	var ack struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(upBody, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Digest != d1 {
		t.Fatalf("gzip upload digest = %s, want %s", ack.Digest, d1)
	}

	// Unknown encodings are 415 unsupported_media_type.
	resp415, body415 := postJSON(t, srv, "/v1/analyze", fig1,
		map[string]string{"Content-Encoding": "br"})
	var e struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body415, &e); err != nil {
		t.Fatal(err)
	}
	if resp415.StatusCode != http.StatusUnsupportedMediaType || e.Code != "unsupported_media_type" {
		t.Fatalf("unknown encoding = %d code %q, want 415 unsupported_media_type", resp415.StatusCode, e.Code)
	}

	// A body over the limit only while decompressed is still rejected:
	// highly compressible payloads cannot sidestep MaxBodyBytes.
	small := newJobsServer(t, Options{MaxBodyBytes: 256})
	bomb := gzipBytes(t, []byte(`{"pad":"`+strings.Repeat("a", 4096)+`"}`))
	if int64(len(bomb)) >= 256 {
		t.Fatalf("test bomb not compressible enough: %d compressed bytes", len(bomb))
	}
	respBomb, bombBody := postJSON(t, small, "/v1/analyze", bomb, gzHdr)
	if respBomb.StatusCode != http.StatusBadRequest {
		t.Fatalf("gzip bomb = %d (body %s), want 400", respBomb.StatusCode, bombBody)
	}
	if !strings.Contains(string(bombBody), "decompressed body exceeds") {
		t.Fatalf("gzip bomb error = %s", bombBody)
	}
}

// TestDiffMixedInlineAndRef checks each diff side independently
// accepts inline or by-reference form, and that giving both (or
// neither) for a side is rejected.
func TestDiffMixedInlineAndRef(t *testing.T) {
	srv := newJobsServer(t, Options{})
	fig1 := figure1Body(t).Bytes()
	digest := uploadDataset(t, srv, fig1, http.StatusCreated)

	mixed := []byte(fmt.Sprintf(`{"before_ref":%q,"after":%s}`, digest, figure1Variant(t)))
	resp, body := postJSON(t, srv, "/v1/diff", mixed, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed diff = %d (body %s)", resp.StatusCode, body)
	}

	for _, bad := range []string{
		fmt.Sprintf(`{"before":%s,"before_ref":%q,"after_ref":%q}`, fig1, digest, digest),
		fmt.Sprintf(`{"after_ref":%q}`, digest),
		`{}`,
	} {
		resp, _ := postJSON(t, srv, "/v1/diff", []byte(bad), nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("diff %s = %d, want 400", bad, resp.StatusCode)
		}
	}

	// An unknown digest on either side is 404.
	ghost := strings.Repeat("0", 64)
	resp404, _ := postJSON(t, srv, "/v1/diff",
		[]byte(fmt.Sprintf(`{"before_ref":%q,"after_ref":%q}`, ghost, digest)), nil)
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost diff = %d, want 404", resp404.StatusCode)
	}
}

// TestDatasetListAndStatsShape covers the enumeration endpoint and the
// stats payload fields the end-to-end test reads.
func TestDatasetListAndStatsShape(t *testing.T) {
	srv := newJobsServer(t, Options{})
	digest := uploadDataset(t, srv, figure1Body(t).Bytes(), http.StatusCreated)

	resp, err := http.Get(srv.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Items         []store.DatasetInfo `json:"items"`
		NextPageToken string              `json:"next_page_token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Items) != 1 || list.Items[0].Digest != digest {
		t.Fatalf("datasets = %+v", list.Items)
	}
	if list.Items[0].Stats.Roles == 0 || list.Items[0].Bytes == 0 {
		t.Fatalf("dataset info missing stats: %+v", list.Items[0])
	}
	if list.NextPageToken != "" {
		t.Fatalf("one dataset should fit one page, next = %q", list.NextPageToken)
	}

	st := serverStats(t, srv)
	if st.Datasets != 1 || st.DatasetBytes == 0 {
		t.Fatalf("store stats = %+v", st)
	}

	// Malformed digests are 400 before any lookup.
	respBad, _ := http.Get(srv.URL + "/v1/datasets/nothex")
	respBad.Body.Close()
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed digest = %d, want 400", respBad.StatusCode)
	}
}

// TestServerStoreDirPersistence restarts the handler over the same
// -store-dir and checks uploaded datasets stay addressable by digest.
func TestServerStoreDirPersistence(t *testing.T) {
	dir := t.TempDir()
	open := func() (*httptest.Server, *store.Store) {
		st, err := store.New(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(Options{Store: st}))
		return srv, st
	}

	srv1, st1 := open()
	digest := uploadDataset(t, srv1, figure1Body(t).Bytes(), http.StatusCreated)
	srv1.Close()
	st1.Close()

	srv2, st2 := open()
	defer srv2.Close()
	defer st2.Close()
	resp, err := http.Get(srv2.URL + "/v1/datasets/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after restart, dataset %s = %d, want 200", digest, resp.StatusCode)
	}
	canonical, _ := io.ReadAll(resp.Body)
	if got, _, err := store.DigestOf(mustParse(t, canonical)); err != nil || got != digest {
		t.Fatalf("restarted snapshot digests to %s (err %v)", got, err)
	}
}

func mustParse(t *testing.T, data []byte) *rbac.Dataset {
	t.Helper()
	ds, err := rbac.ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
