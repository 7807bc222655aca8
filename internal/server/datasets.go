package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/continuous"
	"repro/internal/rbac"
	"repro/internal/store"
)

// registerDatasets wires the dataset registry lifecycle and the stats
// endpoint. Called from NewHandler.
func (h *handler) registerDatasets() {
	h.handle("POST /v1/datasets", h.datasetPut)
	h.handle("GET /v1/datasets", h.datasetList)
	h.handle("GET /v1/datasets/{digest}", h.datasetGet)
	h.handle("DELETE /v1/datasets/{digest}", h.datasetDelete)
	h.handle("GET /v1/stats", h.statsReport)
}

// datasetPutResponse acknowledges an ingest: the digest every later
// request can reference instead of re-uploading the matrices. In a
// fleet, Owner names the digest's rendezvous owner; Degraded means the
// owner was unreachable and this node kept the upload locally so it is
// not lost (reads find it by walking the ranking).
type datasetPutResponse struct {
	Digest   string     `json:"digest"`
	Created  bool       `json:"created"`
	Bytes    int64      `json:"bytes"`
	Stats    rbac.Stats `json:"stats"`
	Owner    string     `json:"owner,omitempty"`
	Degraded bool       `json:"degraded,omitempty"`
}

// datasetPut registers a dataset export: the body is the dataset JSON
// (optionally gzip-compressed), canonicalized and addressed by its
// SHA-256 content digest. Re-uploading identical content answers 200
// with the same digest; new content answers 201.
//
// The body streams into rbac.ReadJSON, the decoder inline bodies use
// too — memory is proportional to the dataset's entities and edges,
// never to the upload's byte length — and MaxUploadBytes is enforced
// as the stream is consumed: an oversized body fails with 400
// payload_too_large after at most the cap has been read, and a
// truncated or malformed body fails with 400 before the store admits
// anything. Nothing partial is ever stored;
// the digest is computed from the fully decoded, canonicalized
// dataset, streamed through the hash without building its bytes.
//
// In a fleet, the upload is routed to the digest's owner: a non-owner
// node forwards the canonical bytes through the hardened client and
// relays the owner's answer; the owner stores locally and replicates
// asynchronously to the digest's other holders. The X-Rolediet-Fleet
// header distinguishes internal hops (forwarded uploads and replica
// pushes) from client traffic so routing cannot loop. If the owner is
// unreachable the node degrades explicitly: it stores the upload
// locally and marks the response degraded, rather than failing or
// hanging.
func (h *handler) datasetPut(w http.ResponseWriter, r *http.Request) {
	body, closeBody, ok := h.bodyStream(w, r, h.opts.MaxUploadBytes)
	if !ok {
		return
	}
	defer closeBody()
	ds, err := rbac.ReadJSON(body)
	if err != nil {
		writeBodyError(w, r, "parse dataset", err)
		return
	}
	digest, size, err := store.Digest(ds)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	internal := r.Header.Get(fleetHeader)
	meta := putMeta{}
	if h.fleet.Enabled() {
		meta.owner = h.fleet.Owner(digest)
		switch internal {
		case "":
			if meta.owner != h.fleet.Self() {
				resp, ferr := h.forwardPut(r.Context(), meta.owner, ds)
				if ferr == nil {
					w.Header().Set("Location", "/v1/datasets/"+digest)
					w.Header().Set("Content-Type", "application/json")
					w.Header().Set("X-Fleet-Routed", meta.owner)
					w.WriteHeader(resp.Status)
					_, _ = w.Write(resp.Body)
					return
				}
				h.opts.Logf("fleet: upload %s: owner %s unreachable, storing locally: %v",
					digest, meta.owner, ferr)
				meta.degraded = true
			} else {
				meta.replicate = true
			}
		case "forward":
			// We are the owner on an internal hop: store and fan out,
			// never forward again.
			meta.replicate = true
		case "replicate":
			// Replica push: store and stop.
		}
	}
	h.putLocal(w, digest, size, ds, meta)
}

// putMeta carries the fleet-routing outcome into putLocal.
type putMeta struct {
	owner     string
	replicate bool
	degraded  bool
}

// putLocal admits the upload into the local store and writes the
// ingest response, kicking off async replication when this node is the
// digest's owner. ds was decoded and validated by this request and
// digest and size come from store.Digest(ds), so the store keeps the
// parsed dataset as is.
func (h *handler) putLocal(w http.ResponseWriter, digest string, size int64, ds *rbac.Dataset, meta putMeta) {
	created, err := h.store.PutDataset(digest, size, ds)
	switch {
	case errors.Is(err, store.ErrTooLarge):
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if meta.replicate {
		h.replicateAsync(digest, ds)
	}
	w.Header().Set("Location", "/v1/datasets/"+digest)
	w.Header().Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	writeJSON(w, datasetPutResponse{
		Digest:   digest,
		Created:  created,
		Bytes:    size,
		Stats:    ds.Stats(),
		Owner:    meta.owner,
		Degraded: meta.degraded,
	})
}

// datasetList enumerates the registered datasets, paginated.
func (h *handler) datasetList(w http.ResponseWriter, r *http.Request) {
	offset, size, ok := pageParams(w, r)
	if !ok {
		return
	}
	items, next := pageSlice(h.store.ListDatasets(), offset, size)
	writeJSON(w, listPage{Items: items, NextPageToken: next})
}

// pathDigest parses the {digest} path value, answering 400 for
// malformed digests.
func (h *handler) pathDigest(w http.ResponseWriter, r *http.Request) (string, bool) {
	digest, err := store.ParseDigest(r.PathValue("digest"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return "", false
	}
	return digest, true
}

// datasetGet serves the canonical snapshot — the exact bytes the
// digest hashes to — followed by the framing newline every JSON
// response ends with.
func (h *handler) datasetGet(w http.ResponseWriter, r *http.Request) {
	digest, ok := h.pathDigest(w, r)
	if !ok {
		return
	}
	ds, size, ok := h.store.GetDataset(digest)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %s not found", digest))
		return
	}
	writeCanonical(w, ds, size, "\n")
}

// writeCanonical streams a stored dataset's canonical encoding, size
// bytes long, and then trailer, announcing the total as the
// Content-Length.
func writeCanonical(w http.ResponseWriter, ds *rbac.Dataset, size int64, trailer string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.FormatInt(size+int64(len(trailer)), 10))
	if _, err := ds.WriteCanonical(w); err == nil {
		_, _ = io.WriteString(w, trailer)
	}
}

// datasetDelete removes a snapshot from the registry and, when
// persistence is on, from disk. Already-cached analysis results for
// the digest are left to their TTL (content addressing keeps them
// correct should the same content ever be re-registered), but a
// single-flight compute that is still in flight when the delete lands
// is barred from being admitted to the cache afterwards: once DELETE
// returns, no *new* cache entry for the digest can appear (see
// store.DeleteDataset). In a fleet, DELETE is strictly local — each
// holder is deleted from individually.
func (h *handler) datasetDelete(w http.ResponseWriter, r *http.Request) {
	digest, ok := h.pathDigest(w, r)
	if !ok {
		return
	}
	if !h.store.DeleteDataset(digest) {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %s not found", digest))
		return
	}
	writeJSON(w, map[string]string{"deleted": digest})
}

// statsResponse is the /v1/stats payload.
type statsResponse struct {
	Store    store.Stats  `json:"store"`
	Jobs     jobStats     `json:"jobs"`
	Sessions sessionStats `json:"sessions"`
	// Continuous carries the continuous-audit subsystem's counters:
	// resource counts, schedule fires, alert trips, sink delivery
	// outcomes, and the decision log's activity.
	Continuous *continuous.Stats `json:"continuous,omitempty"`
}

type jobStats struct {
	// Live counts jobs currently held by the manager in any state.
	Live int `json:"live"`
}

type sessionStats struct {
	// Live counts open mutation sessions on this node.
	Live int `json:"live"`
}

// statsReport surfaces the store's hit/miss/eviction/single-flight
// counters and byte accounting, the live job and session counts, and
// the continuous-audit counters. GET /metrics exposes the same signals
// in Prometheus exposition format.
func (h *handler) statsReport(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		Store:    h.store.Stats(),
		Jobs:     jobStats{Live: h.jobs.Len()},
		Sessions: sessionStats{Live: h.sessions.Len()},
	}
	if h.cont != nil {
		cs := h.cont.Stats()
		resp.Continuous = &cs
	}
	writeJSON(w, resp)
}
