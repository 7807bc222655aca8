package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestWorkersQueryParameter covers the back-compat surface: a bare
// dataset body with ?workers=N must run (parallel grouping is
// result-identical for the default method) and negative or malformed
// values must be rejected with 400 before any analysis starts.
func TestWorkersQueryParameter(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Post(srv.URL+"/v1/analyze?workers=4", "application/json", figure1Body(t))
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
		t.Fatalf("parallel report groups = %+v", rep.SameUserGroups)
	}

	for _, bad := range []string{"workers=-1", "workers=x"} {
		resp, err := http.Post(srv.URL+"/v1/analyze?"+bad, "application/json", figure1Body(t))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestWorkersEnvelopeRejected asserts a negative workers value inside
// the options body is caught by the shared core.Options decoder.
func TestWorkersEnvelopeRejected(t *testing.T) {
	srv := newServer(t)
	body := `{"dataset": ` + figure1Body(t).String() + `, "options": {"workers": -2}}`
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "negative workers") {
		t.Fatalf("error = %q", e.Error)
	}
}

// TestDefaultWorkersOption asserts the daemon-wide default applies when
// a request is silent about workers, and that an analysis run under it
// still yields the serial answer.
func TestDefaultWorkersOption(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{DefaultWorkers: 4}))
	t.Cleanup(srv.Close)
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
}

// TestDefaultWorkersDiffSharesCacheLine asserts /v1/diff applies the
// daemon-wide default like every other endpoint: a diff silent about
// workers runs, and is fingerprinted, as one that names the default
// explicitly, so it is served from that run's cache line.
func TestDefaultWorkersDiffSharesCacheLine(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{DefaultWorkers: 2}))
	t.Cleanup(srv.Close)
	dataset := figure1Body(t).String()
	sides := `"before":` + dataset + `,"after":` + dataset
	for _, tc := range []struct{ body, cache string }{
		{`{"options":{"workers":2},` + sides + `}`, "miss"},
		{`{` + sides + `}`, "hit"},
	} {
		resp := post(t, srv, "/v1/diff", tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != tc.cache {
			t.Fatalf("X-Cache = %q, want %q", got, tc.cache)
		}
	}
}
