package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rbac"
)

// envelopeKeys are the v1Envelope member names. encoding/json matches
// them case-insensitively, so a body holding any key that folds onto
// one of them is an envelope.
var envelopeKeys = []string{"kind", "dataset", "dataset_ref", "options", "optimize"}

// hasEnvelopeKey reports whether body is an object with a top-level key
// that matches an envelope member.
func hasEnvelopeKey(body []byte) bool {
	var top map[string]json.RawMessage
	if json.Unmarshal(body, &top) != nil {
		return false
	}
	for k := range top {
		for _, name := range envelopeKeys {
			if strings.EqualFold(k, name) {
				return true
			}
		}
	}
	return false
}

// FuzzDecodeRequest drives decodeRequest, the one decode path of every
// dataset-consuming endpoint, with fuzzed bodies. It must never panic
// or answer 5xx, and a rejection must come with an error response.
// Wrapping a bare export X as {"dataset": X} must not change whether
// it is accepted, nor the dataset it yields, whenever X is one JSON
// value with no envelope key (concatenating an invalid X into the
// envelope can build a different, valid envelope) and is shallow
// enough that the envelope's extra level stays within the nesting
// limit.
func FuzzDecodeRequest(f *testing.F) {
	var figure1 bytes.Buffer
	if err := rbac.Figure1().WriteJSON(&figure1); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		figure1.String(),
		`{}`,
		`{"users":["a"],"roles":["r"],"userAssignments":[{"role":"r","user":"a"}]}`,
		`{"Users":["a"]}`,
		`{"users":["a"],"users":["b","c"]}`,
		`{"users":["a"]} trailing`,
		`{"users":["é\ud800"],"x":[1e999,{"y":null}]}`,
		`null`, `[]`, `"x"`, `1`, ``,
		`{"options":{"method":"dbscan"}}`,
		`{"kind":"analyze","dataset":{}}`,
		`{"Dataset":{"users":["a"]}}`,
		`{"dataset":{},"dataset":{}}`,
		`{"dataset_ref":"sha256:` + strings.Repeat("0", 64) + `"}`,
		`{"dataset_ref":"nope"}`,
		`{"dataset":{},"options":{"threshold":-1}}`,
		`{"dataset":{},"optimize":{"mine":true,"maxCandidates":1}}`,
	} {
		f.Add(seed)
	}

	ctx, cancel := context.WithCancel(context.Background())
	f.Cleanup(cancel)
	h := NewHandler(Options{BaseContext: ctx}).(*handler)
	f.Cleanup(func() { h.Close() })
	decode := func(t *testing.T, body string) *rbac.Dataset {
		t.Helper()
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
		req, ok := h.decodeRequest(rec, r)
		switch {
		case rec.Code >= 500:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		case !ok && rec.Code < 400:
			t.Fatalf("body %q: rejected with status %d", body, rec.Code)
		case ok && req.dataset == nil:
			t.Fatalf("body %q: accepted without a dataset", body)
		case !ok:
			return nil
		}
		return req.dataset
	}
	f.Fuzz(func(t *testing.T, x string) {
		bare := decode(t, x)
		wrapped := decode(t, `{"dataset":`+x+`}`)
		if !json.Valid([]byte(x)) || hasEnvelopeKey([]byte(x)) || strings.Count(x, "[")+strings.Count(x, "{") >= 9999 {
			return
		}
		if (bare == nil) != (wrapped == nil) {
			t.Fatalf("body %q: bare accepted=%v, as {\"dataset\": ...} accepted=%v", x, bare != nil, wrapped != nil)
		}
		if bare == nil {
			return
		}
		b, err := bare.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		w, err := wrapped.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, w) {
			t.Fatalf("body %q: bare and wrapped datasets differ:\n bare %q\n wrapped %q", x, b, w)
		}
	})
}
