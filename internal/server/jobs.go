package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/jobs"
)

// registerJobs wires the async job lifecycle endpoints. Called from
// NewHandler.
func (h *handler) registerJobs() {
	h.handle("POST /v1/jobs", h.jobSubmit)
	h.handle("GET /v1/jobs", h.jobList)
	h.handle("GET /v1/jobs/{id}", h.jobStatus)
	h.handle("GET /v1/jobs/{id}/result", h.jobResult)
	h.handle("DELETE /v1/jobs/{id}", h.jobCancel)
}

// jobList enumerates this node's live jobs (queued, running, and
// finished-but-unexpired), paginated, oldest first.
func (h *handler) jobList(w http.ResponseWriter, r *http.Request) {
	offset, size, ok := pageParams(w, r)
	if !ok {
		return
	}
	items, next := pageSlice(h.jobs.List(), offset, size)
	writeJSON(w, listPage{Items: items, NextPageToken: next, Node: h.nodeID})
}

// jobSubmit enqueues an analyze/consolidate/suggest/optimize run. The body is
// the v1 envelope with a required "kind"; decoding, validation, and
// dispatch are the exact path the sync endpoints use, so the eventual
// result matches the corresponding sync response. Submission itself
// is cheap — the expensive work happens on the worker pool, under the
// manager's base context rather than this request's.
func (h *handler) jobSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := h.decodeRequest(w, r)
	if !ok {
		return
	}
	switch req.kind {
	case kindAnalyze, kindConsolidate, kindSuggest, kindOptimize:
	case "":
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("job submission needs a kind (analyze, consolidate, suggest, or optimize)"))
		return
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown job kind %q (want analyze, consolidate, suggest, or optimize)", req.kind))
		return
	}
	kind := req.kind
	h.enqueueJob(w, kind, "job", func(ctx context.Context, progress func(string, float64)) (any, error) {
		// The cached path means a job whose (dataset, options, kind)
		// was already computed — by a sync request, another job, or a
		// concurrent in-flight run — finishes without touching the
		// engine, and its result stays byte-identical to the sync
		// endpoint's response.
		out, _, err := h.runKindLogged(ctx, "job", kind, req, progress)
		return out, err
	})
}

// enqueueJob submits task as a job of the given kind and answers 202
// with Location and the job's queued snapshot, 429 with Retry-After
// when the queue is full, or 503 naming what when the manager is
// closed. The snapshot is the one Submit took before any worker could
// start the job, so the 202 body always reads queued.
func (h *handler) enqueueJob(w http.ResponseWriter, kind, what string, task jobs.Task) {
	_, snap, err := h.jobs.Submit(kind, task)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds(h.opts.RetryAfter))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("job queue full (%d queued), retry later", h.opts.JobQueueDepth))
		return
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("submit %s: %w", what, err))
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, snap)
}

// lookupJob resolves {id}, answering 404 not_found for unknown or
// expired jobs.
func (h *handler) lookupJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := h.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q not found (unknown id, or result expired)", id))
		return nil, false
	}
	return j, true
}

// jobStatus reports the job snapshot: status, progress, timestamps.
func (h *handler) jobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := h.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, j.Snapshot())
}

// jobResult returns a finished job's payload — identical in shape to
// the corresponding synchronous endpoint's response. Unfinished jobs
// answer 409 conflict (keep polling the status resource); failed and
// canceled jobs answer with the same error mapping the sync path uses.
func (h *handler) jobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := h.lookupJob(w, r)
	if !ok {
		return
	}
	result, err, finished := j.Result()
	if !finished {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %q not finished (status %s); poll /v1/jobs/%s", j.ID(), j.Snapshot().Status, j.ID()))
		return
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	if raw, ok := result.(rawResult); ok {
		writeRawJSON(w, raw)
		return
	}
	writeJSON(w, result)
}

// jobCancel aborts a queued or running job via its context. Cancelling
// a finished job is a 409 conflict; the snapshot in the response shows
// the state the job is now in.
func (h *handler) jobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := h.lookupJob(w, r)
	if !ok {
		return
	}
	switch err := h.jobs.Cancel(j.ID()); {
	case errors.Is(err, jobs.ErrFinished):
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %q already finished (%s)", j.ID(), j.Snapshot().Status))
		return
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q not found", j.ID()))
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, j.Snapshot())
}
