package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// normalizedReport zeroes a report's timings and re-encodes it, so an
// HTTP response and an in-process analysis compare byte for byte.
func normalizedReport(t *testing.T, rep core.Report) []byte {
	t.Helper()
	zeroDurations(&rep)
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// analyzeByRef posts a by-reference analysis with the given options
// member and returns the normalized report and the X-Cache header.
func analyzeByRef(t *testing.T, srv *httptest.Server, digest, options string) ([]byte, string) {
	t.Helper()
	env := fmt.Sprintf(`{"dataset_ref":%q,"options":%s}`, digest, options)
	resp, body := postJSON(t, srv, "/v1/analyze", []byte(env), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze %s = %d: %s", options, resp.StatusCode, body)
	}
	var rep core.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	return normalizedReport(t, rep), resp.Header.Get("X-Cache")
}

// inProcess analyzes the canonical bytes in process with the given
// options member: the oracle for by-reference analyses.
func inProcess(t *testing.T, canonical []byte, options string) []byte {
	t.Helper()
	var opts core.Options
	if err := json.Unmarshal([]byte(options), &opts); err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(mustParse(t, canonical), opts)
	if err != nil {
		t.Fatal(err)
	}
	return normalizedReport(t, *rep)
}

// TestUploadStoresWhatItDigests pins the upload round trip. The upload
// path stores the dataset it decoded without re-parsing the canonical
// bytes, so the test does the re-parse instead: the served bytes hash
// to the digest, re-digest to it, and analyze (by reference, before and
// after a restart over the same store directory) exactly as an
// in-process analysis of those bytes does.
func TestUploadStoresWhatItDigests(t *testing.T) {
	dir := t.TempDir()
	open := func() (*httptest.Server, func()) {
		st, err := store.New(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(Options{Store: st}))
		return srv, func() { srv.Close(); st.Close() }
	}

	srv, closeSrv := open()
	digest := uploadDataset(t, srv, orgDatasetJSON(t), http.StatusCreated)
	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d (err %v)", path, resp.StatusCode, err)
		}
		return body
	}
	// GET frames the canonical bytes with a newline; the peer-transfer
	// route serves them bare.
	canonical, framed := bytes.CutSuffix(get("/v1/datasets/"+digest), []byte("\n"))
	if !framed {
		t.Fatal("GET /v1/datasets/{digest} body lacks its framing newline")
	}
	if raw := get("/v1/datasets/" + digest + "/raw"); !bytes.Equal(raw, canonical) {
		t.Fatal("raw bytes differ from the GET body")
	}
	sum := sha256.Sum256(canonical)
	if got := hex.EncodeToString(sum[:]); got != digest {
		t.Fatalf("served bytes hash to %s, want %s", got, digest)
	}
	if got, _, err := store.DigestOf(mustParse(t, canonical)); err != nil || got != digest {
		t.Fatalf("re-parsed snapshot digests to %s (err %v), want %s", got, err, digest)
	}

	const defaults, fresh = `{}`, `{"threshold":2,"method":"dbscan"}`
	want := inProcess(t, canonical, defaults)
	if got, cache := analyzeByRef(t, srv, digest, defaults); cache != "miss" || !bytes.Equal(got, want) {
		t.Fatalf("in-memory by-ref analysis (X-Cache %s) differs from in-process:\n got %s\nwant %s", cache, got, want)
	}
	closeSrv()

	srv, closeSrv = open()
	defer closeSrv()
	if got, _ := analyzeByRef(t, srv, digest, defaults); !bytes.Equal(got, want) {
		t.Fatalf("by-ref analysis after restart differs:\n got %s\nwant %s", got, want)
	}
	// New options miss the persisted result cache, so the engine runs
	// over the dataset reloaded from disk.
	want = inProcess(t, canonical, fresh)
	if got, cache := analyzeByRef(t, srv, digest, fresh); cache != "miss" || !bytes.Equal(got, want) {
		t.Fatalf("reloaded by-ref analysis (X-Cache %s) differs from in-process:\n got %s\nwant %s", cache, got, want)
	}
}

// TestConcurrentByRefAnalyses runs eight analyses of one stored dataset
// at once, each with its own options and so its own cache line. The
// store hands every one the same *rbac.Dataset, uncloned; under -race
// this checks the engines only read it.
func TestConcurrentByRefAnalyses(t *testing.T) {
	srv := newJobsServer(t, Options{})
	dataset := orgDatasetJSON(t)
	digest := uploadDataset(t, srv, dataset, http.StatusCreated)

	const n = 8
	got := make([][]byte, n)
	cache := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			options := fmt.Sprintf(`{"threshold":%d}`, i+1)
			env := fmt.Sprintf(`{"dataset_ref":%q,"options":%s}`, digest, options)
			resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader([]byte(env)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var rep core.Report
			if resp.StatusCode != http.StatusOK {
				t.Errorf("analyze %s = %d", options, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
				t.Error(err)
				return
			}
			zeroDurations(&rep)
			got[i], _ = json.Marshal(rep)
			cache[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	ds := mustParse(t, dataset)
	for i := 0; i < n; i++ {
		rep, err := core.Analyze(ds, core.Options{SimilarThreshold: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := normalizedReport(t, *rep); !bytes.Equal(got[i], want) {
			t.Errorf("threshold %d: concurrent by-ref report differs from in-process", i+1)
		}
		if cache[i] != "miss" {
			t.Errorf("threshold %d: X-Cache = %q, want miss (distinct options)", i+1, cache[i])
		}
	}
}
