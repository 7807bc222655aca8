package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/query"
	"repro/internal/rbac"
	"repro/internal/store"
)

// registerExtra wires the query and diff endpoints. Called from
// NewHandler.
func (h *handler) registerExtra() {
	h.handle("POST /v1/query", h.query)
	h.handle("POST /v1/diff", h.diff)
}

// queryResponse is the /v1/query result; only the fields relevant to
// the request's selectors are populated.
type queryResponse struct {
	Roles       []rbac.RoleID       `json:"roles,omitempty"`
	Permissions []rbac.PermissionID `json:"permissions,omitempty"`
	Users       []rbac.UserID       `json:"users,omitempty"`
	Grants      []query.Grant       `json:"grants,omitempty"`
	HasAccess   *bool               `json:"hasAccess,omitempty"`
}

// query answers access-review questions: ?user=, ?permission=, or both.
// The body is a bare dataset or the v1 envelope (its options are
// irrelevant here and ignored).
func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	user := rbac.UserID(r.URL.Query().Get("user"))
	perm := rbac.PermissionID(r.URL.Query().Get("permission"))
	if user == "" && perm == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("query: need user and/or permission"))
		return
	}
	req, ok := h.decodeRequest(w, r)
	if !ok {
		return
	}
	x := query.NewIndex(req.dataset)
	var resp queryResponse
	switch {
	case user != "" && perm != "":
		grants, err := x.Why(user, perm)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		has := len(grants) > 0
		resp.Grants = grants
		resp.HasAccess = &has
	case user != "":
		roles, err := x.RolesOf(user)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		perms, err := x.PermissionsOf(user)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		resp.Roles = roles
		resp.Permissions = perms
	default:
		roles, err := x.RolesGranting(perm)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		users, err := x.UsersWith(perm)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		resp.Roles = roles
		resp.Users = users
	}
	writeJSON(w, resp)
}

// diffRequest carries the two snapshots to compare — each side inline
// or as a digest reference to a registered dataset — plus optional
// analysis options in the shared core.Options wire schema (body wins
// over the method/threshold query parameters).
type diffRequest struct {
	Before    *rbac.Dataset `json:"before"`
	After     *rbac.Dataset `json:"after"`
	BeforeRef string        `json:"before_ref"`
	AfterRef  string        `json:"after_ref"`
	Options   *core.Options `json:"options"`
}

// diffResponse bundles the structural and audit-count diffs.
type diffResponse struct {
	Structural *diff.DatasetDiff `json:"structural"`
	Counts     *diff.ReportDiff  `json:"counts"`
	Improved   bool              `json:"improved"`
}

// diffSide resolves one side of the comparison: exactly one of the
// inline dataset or the digest reference, named so errors read
// "diff: before ...".
func (h *handler) diffSide(w http.ResponseWriter, r *http.Request, name string, inline *rbac.Dataset, ref string) (*rbac.Dataset, string, bool) {
	switch {
	case inline != nil && ref != "":
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("diff: give %s inline or as %s_ref, not both", name, name))
		return nil, "", false
	case inline == nil && ref == "":
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("diff: need %s (inline dataset or %s_ref digest)", name, name))
		return nil, "", false
	case ref != "":
		return h.resolveRef(w, r, ref)
	}
	digest, _, err := store.Digest(inline)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return nil, "", false
	}
	return inline, digest, true
}

// diff compares two snapshots — posted inline or referenced by digest —
// structurally and by audit counts. Results are cached under the pair
// of content digests, so re-diffing the same pair (in either form) is
// served from the store.
func (h *handler) diff(w http.ResponseWriter, r *http.Request) {
	opts, err := queryOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, ok := h.readBody(w, r)
	if !ok {
		return
	}
	var req diffRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse diff request: %w", err))
		return
	}
	if req.Options != nil {
		opts = *req.Options
	}
	opts = h.withDefaultWorkers(opts)
	before, beforeDigest, ok := h.diffSide(w, r, "before", req.Before, req.BeforeRef)
	if !ok {
		return
	}
	after, afterDigest, ok := h.diffSide(w, r, "after", req.After, req.AfterRef)
	if !ok {
		return
	}
	fp, err := store.Fingerprint(opts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	key := store.Key{
		Dataset:     beforeDigest + "+" + afterDigest,
		Fingerprint: fp,
		Kind:        "diff",
	}
	out, hit, err := h.store.Result(r.Context(), key, func(ctx context.Context) ([]byte, error) {
		repBefore, err := core.AnalyzeContext(ctx, before, opts)
		if err != nil {
			return nil, err
		}
		repAfter, err := core.AnalyzeContext(ctx, after, opts)
		if err != nil {
			return nil, err
		}
		rd := diff.Reports(repBefore, repAfter)
		return json.Marshal(diffResponse{
			Structural: diff.Datasets(before, after),
			Counts:     rd,
			Improved:   rd.Improved(),
		})
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	w.Header().Set("X-Cache", cacheHeader(hit))
	writeRawJSON(w, out)
}
