package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/rbac"
	"repro/internal/store"
)

// Fleet-facing HTTP surface. Everything here degrades gracefully: a
// single-node daemon (no -peers) serves the same endpoints with
// enabled=false and strictly local behaviour, and a fleet node whose
// peers are down answers with explicit, bounded errors instead of
// hanging.

// fleetHeader marks node-to-node requests so routing cannot loop:
//
//	forward    a peer relayed a client upload to us (the owner);
//	           store it and fan out replication, but never re-forward
//	replicate  the owner is pushing us a replica; store it and stop
const fleetHeader = "X-Rolediet-Fleet"

// registerFleet wires the internal raw-transfer endpoint and the
// scatter-gather stats endpoint. Called from NewHandler.
func (h *handler) registerFleet() {
	h.handle("GET /v1/datasets/{digest}/raw", h.datasetRaw)
	h.handle("GET /v1/fleet/stats", h.fleetStats)
}

// datasetRaw serves the exact canonical bytes of a locally held
// dataset — the internal peer-transfer endpoint FetchDataset calls.
// Strictly local by design: it must never trigger a recursive fleet
// fetch, so a digest this node does not hold is a plain 404 and the
// caller walks to the next holder itself. No framing newline is added;
// the body hashes to the digest, which is how the fetching peer
// verifies the transfer.
func (h *handler) datasetRaw(w http.ResponseWriter, r *http.Request) {
	digest, ok := h.pathDigest(w, r)
	if !ok {
		return
	}
	ds, size, ok := h.store.GetDataset(digest)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %s not held by this node", digest))
		return
	}
	writeCanonical(w, ds, size, "")
}

// forwardPut relays an external upload to the digest's owner through
// the hardened client, reporting whether the relay succeeded. The
// owner stores the dataset and fans out replication itself. The hop
// carries the canonical bytes, encoded here: only fleet hops build
// them whole.
func (h *handler) forwardPut(ctx context.Context, owner string, ds *rbac.Dataset) (*fleet.PeerResponse, error) {
	canonical, err := ds.MarshalJSON()
	if err != nil {
		return nil, err
	}
	hdr := http.Header{fleetHeader: []string{"forward"}, "Content-Type": []string{"application/json"}}
	resp, err := h.fleet.Do(ctx, http.MethodPost, owner, "/v1/datasets", canonical, hdr)
	h.fleet.NoteForward(err == nil)
	return resp, err
}

// replicateAsync pushes the canonical bytes to every other holder in
// the background. Replication is best-effort but persistent within its
// window: a replica that is down or still booting is re-tried with a
// pause in between (a startup race must not silently lose the replica
// forever), content addressing makes every re-push idempotent, reads
// fall back to the owner while a replica is missing, and failures are
// counted and logged, never surfaced to the uploader. The canonical
// bytes are encoded once, here, and shared by the pushes.
func (h *handler) replicateAsync(digest string, ds *rbac.Dataset) {
	if !h.fleet.Enabled() {
		return
	}
	canonical, err := ds.MarshalJSON()
	if err != nil {
		h.opts.Logf("fleet: replicate %s: %v", digest, err)
		return
	}
	base := h.opts.BaseContext
	if base == nil {
		base = context.Background()
	}
	for _, peer := range h.fleet.Holders(digest) {
		if peer == h.fleet.Self() {
			continue
		}
		go func(peer string) {
			ctx, cancel := context.WithTimeout(base, 30*time.Second)
			defer cancel()
			hdr := http.Header{fleetHeader: []string{"replicate"}, "Content-Type": []string{"application/json"}}
			var err error
			for {
				_, err = h.fleet.Do(ctx, http.MethodPost, peer, "/v1/datasets", canonical, hdr)
				if err == nil || ctx.Err() != nil {
					break
				}
				t := time.NewTimer(time.Second)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
				}
			}
			h.fleet.NoteReplication(err == nil)
			if err != nil {
				h.opts.Logf("fleet: replicate %s to %s abandoned: %v", digest, peer, err)
			}
		}(peer)
	}
}

// fleetNode is one node's local slice of the fleet stats.
type fleetNode struct {
	Peer  string      `json:"peer,omitempty"`
	Node  string      `json:"node"`
	State string      `json:"state"`
	Boot  string      `json:"boot,omitempty"`
	Store store.Stats `json:"store"`
	Jobs  jobStats    `json:"jobs"`
}

// skippedPeer records a peer the scatter-gather could not reach.
type skippedPeer struct {
	Peer  string `json:"peer"`
	Error string `json:"error"`
}

// fleetStatsResponse is the /v1/fleet/stats payload. Skipped is always
// present so partial failure is visible, not silent.
type fleetStatsResponse struct {
	Enabled bool          `json:"enabled"`
	Self    fleetNode     `json:"self"`
	Fleet   *fleet.Stats  `json:"fleet,omitempty"`
	Nodes   []fleetNode   `json:"nodes"`
	Skipped []skippedPeer `json:"skipped"`
}

// localFleetNode snapshots this node's own slice.
func (h *handler) localFleetNode() fleetNode {
	state := fleet.StateReady
	if h.opts.Readiness != nil && !h.opts.Readiness() {
		state = fleet.StateDraining
	}
	n := fleetNode{
		Node:  h.nodeID,
		State: state,
		Boot:  h.boot,
		Store: h.store.Stats(),
		Jobs:  jobStats{Live: h.jobs.Len()},
	}
	if h.fleet.Enabled() {
		n.Peer = h.fleet.Self()
	}
	return n
}

// fleetStats answers both forms of the stats endpoint:
//
//	?scope=local   this node's slice only (what peers gather)
//	default        scatter-gather across the membership, tolerating
//	               partial failure: unreachable peers land in
//	               "skipped" with their error, reachable ones in
//	               "nodes", and the local fleet client state (per-peer
//	               breaker + health generation counters) rides along
func (h *handler) fleetStats(w http.ResponseWriter, r *http.Request) {
	local := h.localFleetNode()
	if r.URL.Query().Get("scope") == "local" || !h.fleet.Enabled() {
		if r.URL.Query().Get("scope") == "local" {
			writeJSON(w, local)
			return
		}
		writeJSON(w, fleetStatsResponse{
			Enabled: false,
			Self:    local,
			Nodes:   []fleetNode{},
			Skipped: []skippedPeer{},
		})
		return
	}

	fs := h.fleet.Stats()
	resp := fleetStatsResponse{
		Enabled: true,
		Self:    local,
		Fleet:   &fs,
		Nodes:   []fleetNode{},
		Skipped: []skippedPeer{},
	}
	type gathered struct {
		peer string
		node *fleetNode
		err  error
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out []gathered
	)
	for _, peer := range h.fleet.Peers() {
		if peer == h.fleet.Self() {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			g := gathered{peer: peer}
			pr, err := h.fleet.Do(r.Context(), http.MethodGet, peer, "/v1/fleet/stats?scope=local", nil, nil)
			if err != nil {
				g.err = err
			} else {
				var n fleetNode
				if uerr := json.Unmarshal(pr.Body, &n); uerr != nil {
					g.err = fmt.Errorf("parse peer stats: %w", uerr)
				} else {
					n.Peer = peer
					g.node = &n
				}
			}
			mu.Lock()
			out = append(out, g)
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
	// Deterministic order: walk the membership, not goroutine finish
	// order.
	byPeer := make(map[string]gathered, len(out))
	for _, g := range out {
		byPeer[g.peer] = g
	}
	for _, peer := range h.fleet.Peers() {
		g, ok := byPeer[peer]
		if !ok {
			continue
		}
		if g.err != nil {
			resp.Skipped = append(resp.Skipped, skippedPeer{Peer: peer, Error: g.err.Error()})
		} else {
			resp.Nodes = append(resp.Nodes, *g.node)
		}
	}
	writeJSON(w, resp)
}

// bootID generates the per-process instance identifier /healthz
// reports; the fleet prober uses a change under the same URL to detect
// a restart.
func bootID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// buildVersion reports the module build version for /healthz.
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && len(s.Value) >= 12 {
			return s.Value[:12]
		}
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}
