package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/rbac"
)

// TestIngestContract pins the one accept/reject contract every
// dataset-ingesting endpoint shares: inline /v1/analyze and
// /v1/optimize, /v1/jobs submissions, and POST /v1/datasets uploads.
// Inline bodies and uploads go through the same decoder and the same
// size-capped reader, so the same bytes yield the same dataset (or the
// same rejection) wherever they are posted.
func TestIngestContract(t *testing.T) {
	const limit = 4096
	oversize := `{"users":["` + strings.Repeat("u", limit) + `"]}`

	type cell struct {
		status int
		code   string
	}
	var (
		na       = cell{}
		ok       = cell{http.StatusOK, ""}
		created  = cell{http.StatusCreated, ""}
		accepted = cell{http.StatusAccepted, ""}
		bad      = cell{http.StatusBadRequest, CodeBadRequest}
		tooLarge = cell{http.StatusBadRequest, CodePayloadTooLarge}
	)
	for _, tc := range []struct {
		name   string
		body   string // posted inline and, where upload applies, uploaded
		job    string // the /v1/jobs submission carrying body
		inline cell   // /v1/analyze and /v1/optimize
		jobs   cell
		upload cell // na: an envelope, which uploads do not take
		users  int  // users in the accepted dataset
	}{
		{"empty export", `{}`, `{"kind":"analyze","dataset":{}}`, ok, accepted, created, 0},
		{"case-folded key", `{"Users":["a"]}`, `{"kind":"analyze","dataset":{"Users":["a"]}}`, ok, accepted, created, 0},
		{"duplicate key", `{"users":["a"],"users":["b","c"]}`,
			`{"kind":"analyze","dataset":{"users":["a"],"users":["b","c"]}}`, bad, bad, bad, 0},
		{"null", `null`, `{"kind":"analyze","dataset":null}`, bad, bad, bad, 0},
		{"envelope without a dataset", `{"options":{"method":"dbscan"}}`,
			`{"kind":"analyze","options":{"method":"dbscan"}}`, bad, bad, na, 0},
		{"repeated envelope key", `{"dataset":{},"dataset":{"users":["a"]}}`,
			`{"kind":"analyze","kind":"analyze","dataset":{}}`, bad, bad, na, 0},
		{"null dataset", `{"dataset":null}`, `{"kind":"analyze","dataset":null}`, bad, bad, na, 0},
		{"envelope then a value", `{"dataset":{"users":["a"]}} {"x":1}`,
			`{"kind":"analyze","dataset":{"users":["a"]}} {"x":1}`, bad, bad, na, 0},
		{"trailing data", `{"users":["a"]} trailing`,
			`{"kind":"analyze","dataset":{"users":["a"]}} trailing`, bad, bad, bad, 0},
		{"oversize", oversize, `{"kind":"analyze","dataset":` + oversize + `}`, tooLarge, tooLarge, tooLarge, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newJobsServer(t, Options{MaxBodyBytes: limit, MaxUploadBytes: limit})
			check := func(path, body string, want cell) []byte {
				t.Helper()
				resp, raw := postJSON(t, srv, path, []byte(body), nil)
				var eb errorBody
				if resp.StatusCode >= 400 {
					if err := json.Unmarshal(raw, &eb); err != nil {
						t.Fatalf("%s: error body %s: %v", path, raw, err)
					}
				}
				if resp.StatusCode != want.status || eb.Code != want.code {
					t.Fatalf("%s = %d %q, want %d %q (body %.200s)",
						path, resp.StatusCode, eb.Code, want.status, want.code, raw)
				}
				return raw
			}

			analyzed := check("/v1/analyze", tc.body, tc.inline)
			check("/v1/optimize", tc.body, tc.inline)
			check("/v1/jobs", tc.job, tc.jobs)
			if tc.upload == na {
				return
			}
			uploaded := check("/v1/datasets", tc.body, tc.upload)
			if tc.inline != ok {
				return
			}
			var rep, ack struct {
				Stats rbac.Stats `json:"stats"`
			}
			if err := json.Unmarshal(analyzed, &rep); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(uploaded, &ack); err != nil {
				t.Fatal(err)
			}
			if rep.Stats != ack.Stats || rep.Stats.Users != tc.users {
				t.Fatalf("inline stats %+v, upload stats %+v, want %d users in both", rep.Stats, ack.Stats, tc.users)
			}
		})
	}
}
