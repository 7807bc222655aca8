package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/optimize"
)

// registerOptimize wires the role-set optimization endpoints. Called
// from NewHandler.
func (h *handler) registerOptimize() {
	h.handle("POST /v1/optimize", h.optimize)
	h.handle("GET /v1/optimize/{digest}/plan", h.optimizePlan)
}

// optimizeQueryKnobs extracts the planner knobs from query parameters —
// the surface GET /v1/optimize/{digest}/plan uses, and the back-compat
// form for POSTs without an "optimize" envelope member. Returns nil
// when no knob parameter is present, which planKnobs treats identically
// to an empty knob set, so the parameterless forms share a cache line.
func optimizeQueryKnobs(r *http.Request) (*optimize.Knobs, error) {
	q := r.URL.Query()
	var k optimize.Knobs
	set := false
	if v := q.Get("mine"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, fmt.Errorf("mine: %w", err)
		}
		k.Mine = b
		set = true
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"max_added_edges", &k.MaxAddedEdges},
		{"max_candidates", &k.MaxCandidates},
		{"max_rounds", &k.MaxRounds},
		{"mine_workers", &k.Workers},
	} {
		v := q.Get(p.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("%s %d < 0", p.name, n)
		}
		*p.dst = n
		set = true
	}
	if !set {
		return nil, nil
	}
	return &k, nil
}

// optimize runs the full remediation planner: eliminations, merges to
// convergence, the optional mining pass, and the reachability oracle.
// The body is a bare dataset or the v1 envelope (knobs in its
// "optimize" member); ?mode=async submits the run to the jobs pool and
// answers 202 with the job snapshot, same lifecycle as every other
// engine kind.
func (h *handler) optimize(w http.ResponseWriter, r *http.Request) {
	req, ok := h.decodeRequest(w, r)
	if !ok {
		return
	}
	if req.optKnobs == nil {
		knobs, err := optimizeQueryKnobs(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		req.optKnobs = knobs
	}
	if mode := r.URL.Query().Get("mode"); mode == "async" {
		h.enqueueJob(w, kindOptimize, "optimize job", func(ctx context.Context, progress func(string, float64)) (any, error) {
			out, _, err := h.runKindLogged(ctx, "job", kindOptimize, req, progress)
			return out, err
		})
		return
	}
	out, hit, err := h.runKindLogged(r.Context(), "api", kindOptimize, req, nil)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	if raw, ok := out.(rawResult); ok {
		w.Header().Set("X-Cache", cacheHeader(hit))
		writeRawJSON(w, raw)
		return
	}
	writeJSON(w, out)
}

// optimizePlan serves the paginated action view of a registered
// dataset's optimization plan. Knobs come from query parameters
// (mine, max_added_edges, max_candidates, max_rounds, mine_workers)
// plus the standard method/threshold/workers analysis parameters, so a
// GET with the same knobs as a prior POST is a cache hit on the same
// line — the plan is never recomputed to page through it. In a fleet,
// an unheld digest is fetched through from its holders first.
func (h *handler) optimizePlan(w http.ResponseWriter, r *http.Request) {
	offset, size, ok := pageParams(w, r)
	if !ok {
		return
	}
	opts, err := queryOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	knobs, err := optimizeQueryKnobs(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ds, digest, ok := h.resolveRef(w, r, r.PathValue("digest"))
	if !ok {
		return
	}
	req := &v1Request{dataset: ds, digest: digest, opts: h.withDefaultWorkers(opts), optKnobs: knobs}
	out, hit, err := h.runKindLogged(r.Context(), "api", kindOptimize, req, nil)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	raw, ok := out.(rawResult)
	if !ok {
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("optimize result was not cacheable"))
		return
	}
	var res struct {
		Plan optimize.Plan `json:"plan"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("decode cached plan: %w", err))
		return
	}
	items, next := pageSlice(res.Plan.Actions, offset, size)
	w.Header().Set("X-Cache", cacheHeader(hit))
	writeJSON(w, listPage{Items: items, NextPageToken: next})
}
