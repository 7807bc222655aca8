package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/core"
)

// decodeReport reads an analyze response body into a Report with the
// timing fields cleared, so two runs of the same analysis compare equal.
func decodeReport(t *testing.T, resp *http.Response) core.Report {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rep core.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	zeroDurations(&rep)
	return rep
}

// decodeError reads an error response's envelope.
func decodeErrorBody(t *testing.T, resp *http.Response) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error == "" {
		t.Fatal("error envelope has empty message")
	}
	return eb
}

// TestEnvelopeBodyOptions verifies the v1 envelope on sync endpoints:
// options in the body behave exactly like the equivalent query
// parameters, and when both are present the body wins.
func TestEnvelopeBodyOptions(t *testing.T) {
	srv := newServer(t)
	dataset := figure1Body(t).String()

	// Baseline: query-parameter form.
	viaQuery := decodeReport(t, post(t, srv, "/v1/analyze?method=rolediet&threshold=2", dataset))

	// Same options via the body envelope.
	viaBody := decodeReport(t, post(t, srv, "/v1/analyze",
		`{"options":{"method":"rolediet","threshold":2},"dataset":`+dataset+`}`))
	if !reflect.DeepEqual(viaQuery, viaBody) {
		t.Fatalf("body options differ from query options:\nquery: %+v\nbody:  %+v", viaQuery, viaBody)
	}

	// Body wins over conflicting query parameters.
	bodyWins := decodeReport(t, post(t, srv, "/v1/analyze?threshold=1&method=dbscan",
		`{"options":{"method":"rolediet","threshold":2},"dataset":`+dataset+`}`))
	if !reflect.DeepEqual(viaQuery, bodyWins) {
		t.Fatalf("body did not win over query params:\nwant: %+v\ngot:  %+v", viaQuery, bodyWins)
	}

	// A bare dataset body (no envelope) still works unchanged.
	bare := decodeReport(t, post(t, srv, "/v1/analyze?method=rolediet&threshold=2", dataset))
	if !reflect.DeepEqual(viaQuery, bare) {
		t.Fatal("bare dataset body broke")
	}
}

// TestEnvelopeOnOtherEndpoints verifies consolidate, suggest, and
// query accept the envelope form too.
func TestEnvelopeOnOtherEndpoints(t *testing.T) {
	srv := newServer(t)
	dataset := figure1Body(t).String()
	env := `{"options":{"threshold":1},"dataset":` + dataset + `}`

	if resp := post(t, srv, "/v1/consolidate", env); resp.StatusCode != http.StatusOK {
		t.Fatalf("consolidate envelope status = %d", resp.StatusCode)
	}
	if resp := post(t, srv, "/v1/suggest", env); resp.StatusCode != http.StatusOK {
		t.Fatalf("suggest envelope status = %d", resp.StatusCode)
	}
	if resp := post(t, srv, "/v1/query?user=U01", env); resp.StatusCode != http.StatusOK {
		t.Fatalf("query envelope status = %d", resp.StatusCode)
	}
}

// TestEnvelopeRejectsBadOptions verifies the shared core.Options wire
// schema rejects unknown methods and negative thresholds with 400 +
// bad_request, on both sync endpoints and diff's body options.
func TestEnvelopeRejectsBadOptions(t *testing.T) {
	srv := newServer(t)
	dataset := figure1Body(t).String()
	cases := []struct {
		name, path, body string
	}{
		{"unknown method", "/v1/analyze", `{"options":{"method":"kmeans"},"dataset":` + dataset + `}`},
		{"negative threshold", "/v1/analyze", `{"options":{"threshold":-3},"dataset":` + dataset + `}`},
		{"unknown method via diff", "/v1/diff", `{"options":{"method":"kmeans"},"before":` + dataset + `,"after":` + dataset + `}`},
		// lsh is a retired method: it fails as any unknown name does.
		{"retired method", "/v1/analyze", `{"options":{"method":"lsh"},"dataset":` + dataset + `}`},
		{"retired method via diff", "/v1/diff", `{"options":{"method":"lsh"},"before":` + dataset + `,"after":` + dataset + `}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, srv, tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if eb := decodeErrorBody(t, resp); eb.Code != CodeBadRequest {
				t.Fatalf("code = %q, want %q", eb.Code, CodeBadRequest)
			}
		})
	}
}

// TestErrorEnvelopeCodes pins writeError's code mapping on live
// responses from representative endpoints.
func TestErrorEnvelopeCodes(t *testing.T) {
	srv := newServer(t)
	// 400 bad_request: malformed body.
	if eb := decodeErrorBody(t, post(t, srv, "/v1/analyze", "{broken")); eb.Code != CodeBadRequest {
		t.Fatalf("400 code = %q", eb.Code)
	}
	// 422 unprocessable: structurally valid request the engine rejects.
	resp := post(t, srv, "/v1/query?permission=ghost", figure1Body(t).String())
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Code != CodeUnprocessable {
		t.Fatalf("422 code = %q", eb.Code)
	}
}

// TestDiffBodyOptionsWin verifies /v1/diff prefers body options over
// query parameters (a bad query method is overridden by a valid body).
func TestDiffBodyOptionsWin(t *testing.T) {
	srv := newServer(t)
	dataset := figure1Body(t).String()
	resp := post(t, srv, "/v1/diff?threshold=9",
		`{"options":{"method":"rolediet","threshold":1},"before":`+dataset+`,"after":`+dataset+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestCodeForTable pins the status -> code mapping documented in the
// package comment.
func TestCodeForTable(t *testing.T) {
	want := map[int]string{
		http.StatusBadRequest:          CodeBadRequest,
		http.StatusNotFound:            CodeNotFound,
		http.StatusConflict:            CodeConflict,
		http.StatusUnprocessableEntity: CodeUnprocessable,
		http.StatusTooManyRequests:     CodeShed,
		http.StatusServiceUnavailable:  CodeCanceled,
		http.StatusGatewayTimeout:      CodeTimeout,
		http.StatusInternalServerError: CodeInternal,
		http.StatusTeapot:              CodeInternal, // anything unlisted falls back
	}
	for status, code := range want {
		if got := codeFor(status); got != code {
			t.Errorf("codeFor(%d) = %q, want %q", status, got, code)
		}
	}
}
