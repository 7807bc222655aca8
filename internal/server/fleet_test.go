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
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/fleet"
	"repro/internal/rbac"
	"repro/internal/store"
)

// swapHTTP lets the cluster helper start listeners (fixing every
// node's URL) before the fleet-aware handlers that need those URLs
// exist. raw counts the GET .../raw requests the node has received, the
// fetches its peers make.
type swapHTTP struct {
	v   atomic.Value
	raw atomic.Int64
}

func (s *swapHTTP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/raw") {
		s.raw.Add(1)
	}
	s.v.Load().(http.Handler).ServeHTTP(w, r)
}

// cluster is an in-process fleet of n nodes sharing one membership.
type cluster struct {
	urls   []string
	fleets []*fleet.Fleet
	srvs   []*httptest.Server
	swaps  []*swapHTTP
}

// newCluster boots n fleet nodes on real listeners. Probing is off so
// tests are deterministic; peer calls are tuned fast so failure paths
// finish in milliseconds.
func newCluster(t *testing.T, n int, mutate func(i int, o *fleet.Options)) *cluster {
	t.Helper()
	return newClusterWith(t, n, mutate, nil)
}

// newClusterWith is newCluster with a hook that adjusts each node's
// handler options as well.
func newClusterWith(t *testing.T, n int, mutate func(i int, o *fleet.Options), handler func(i int, o *Options)) *cluster {
	t.Helper()
	c := &cluster{swaps: make([]*swapHTTP, n)}
	for i := 0; i < n; i++ {
		c.swaps[i] = &swapHTTP{}
		srv := httptest.NewUnstartedServer(c.swaps[i])
		t.Cleanup(srv.Close)
		c.srvs = append(c.srvs, srv)
		c.urls = append(c.urls, "http://"+srv.Listener.Addr().String())
	}
	for i := 0; i < n; i++ {
		opts := fleet.Options{
			Self:           c.urls[i],
			Peers:          c.urls,
			Replicas:       1,
			AttemptTimeout: 500 * time.Millisecond,
			MaxAttempts:    2,
			BaseDelay:      time.Millisecond,
			MaxDelay:       5 * time.Millisecond,
			ProbeInterval:  -1,
			Logf:           t.Logf,
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		fl, err := fleet.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fl.Close)
		c.fleets = append(c.fleets, fl)
		hopts := Options{
			Fleet:      fl,
			NodeID:     fmt.Sprintf("node%d", i),
			RetryAfter: time.Second,
			Logf:       t.Logf,
		}
		if handler != nil {
			handler(i, &hopts)
		}
		h := NewHandler(hopts)
		t.Cleanup(func() { h.(io.Closer).Close() })
		c.swaps[i].v.Store(h)
		c.srvs[i].Start()
	}
	return c
}

// nodeFor maps a peer URL back to its index.
func (c *cluster) nodeFor(t *testing.T, peer string) int {
	t.Helper()
	for i, u := range c.urls {
		if u == peer {
			return i
		}
	}
	t.Fatalf("unknown peer %s in %v", peer, c.urls)
	return -1
}

type putResult struct {
	Digest   string `json:"digest"`
	Created  bool   `json:"created"`
	Owner    string `json:"owner"`
	Degraded bool   `json:"degraded"`
}

// upload posts the Figure 1 dataset to node i and decodes the ack.
func (c *cluster) upload(t *testing.T, i int) putResult {
	t.Helper()
	resp, err := http.Post(c.srvs[i].URL+"/v1/datasets", "application/json", figure1Body(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload to node %d: %d %s", i, resp.StatusCode, body)
	}
	var pr putResult
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("upload ack: %v (%s)", err, body)
	}
	return pr
}

// rawStatus asks node i's strictly-local raw endpoint about a digest.
func (c *cluster) rawStatus(t *testing.T, i int, digest string) int {
	t.Helper()
	resp, err := http.Get(c.srvs[i].URL + "/v1/datasets/" + digest + "/raw")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// waitHeld polls until node i holds the digest locally (replication is
// asynchronous).
func (c *cluster) waitHeld(t *testing.T, i int, digest string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.rawStatus(t, i, digest) == http.StatusOK {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node %d never received replica of %s", i, digest)
}

// analyzeRef runs /v1/analyze with a dataset_ref against node i.
func (c *cluster) analyzeRef(t *testing.T, i int, digest, query string) (*http.Response, []byte) {
	t.Helper()
	body := fmt.Sprintf(`{"dataset_ref":%q}`, digest)
	resp, err := http.Post(c.srvs[i].URL+"/v1/analyze"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// TestFleetUploadRoutesToOwner pins the write path: any node accepts
// the upload, the rendezvous owner ends up holding it, exactly
// owner+replica hold it after async replication, and the relay
// preserves the single-node response contract (201 then 200).
func TestFleetUploadRoutesToOwner(t *testing.T) {
	c := newCluster(t, 3, nil)
	pr := c.upload(t, 0)
	if pr.Digest == "" || pr.Owner == "" || !pr.Created || pr.Degraded {
		t.Fatalf("upload ack = %+v", pr)
	}
	if pr.Owner != c.fleets[0].Owner(pr.Digest) {
		t.Fatalf("ack owner %s, rendezvous owner %s", pr.Owner, c.fleets[0].Owner(pr.Digest))
	}

	holders := c.fleets[0].Holders(pr.Digest)
	if len(holders) != 2 {
		t.Fatalf("holders = %v, want owner+1 replica", holders)
	}
	for _, peer := range holders {
		c.waitHeld(t, c.nodeFor(t, peer), pr.Digest)
	}
	held := map[string]bool{}
	for _, p := range holders {
		held[p] = true
	}
	for i, u := range c.urls {
		if !held[u] && c.rawStatus(t, i, pr.Digest) != http.StatusNotFound {
			t.Fatalf("non-holder node %d holds %s; placement leaked", i, pr.Digest)
		}
	}

	// Idempotent re-upload through a different node: 200, not 201.
	pr2 := c.upload(t, 1)
	if pr2.Digest != pr.Digest || pr2.Created {
		t.Fatalf("re-upload ack = %+v, want created=false same digest", pr2)
	}

	// The raw endpoint's bytes hash to the digest — the transfer
	// integrity contract peers rely on.
	resp, err := http.Get(c.srvs[c.nodeFor(t, pr.Owner)].URL + "/v1/datasets/" + pr.Digest + "/raw")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	sum := sha256.Sum256(raw)
	if hex.EncodeToString(sum[:]) != pr.Digest {
		t.Fatal("raw endpoint bytes do not hash to the digest")
	}
}

// TestFleetAnalyzeByRefFetchesThrough pins the read path: a node that
// does not hold the referenced dataset fetches it from a holder and
// answers byte-identically to a node that had it locally.
func TestFleetAnalyzeByRefFetchesThrough(t *testing.T) {
	c := newCluster(t, 3, nil)
	pr := c.upload(t, 0)
	ownerIdx := c.nodeFor(t, pr.Owner)
	c.waitHeld(t, ownerIdx, pr.Digest)

	held := map[string]bool{}
	for _, p := range c.fleets[0].Holders(pr.Digest) {
		held[p] = true
	}
	outsider := -1
	for i, u := range c.urls {
		if !held[u] {
			outsider = i
		}
	}
	if outsider < 0 {
		t.Fatal("no outsider node")
	}

	respO, bodyO := c.analyzeRef(t, ownerIdx, pr.Digest, "")
	respX, bodyX := c.analyzeRef(t, outsider, pr.Digest, "")
	if respO.StatusCode != http.StatusOK || respX.StatusCode != http.StatusOK {
		t.Fatalf("analyze status owner=%d outsider=%d (%s)", respO.StatusCode, respX.StatusCode, bodyX)
	}
	// Wall-clock measurements are the one legitimately nondeterministic
	// part of a report; everything else must match byte for byte.
	durations := regexp.MustCompile(`"[a-zA-Z]*DurationNanos":[0-9]+`)
	bodyO = durations.ReplaceAll(bodyO, nil)
	bodyX = durations.ReplaceAll(bodyX, nil)
	if !bytes.Equal(bodyO, bodyX) {
		t.Fatalf("fleet-routed analyze differs from local:\n%s\nvs\n%s", bodyX, bodyO)
	}
	// Fetch-through cached the dataset: the outsider now holds it.
	if c.rawStatus(t, outsider, pr.Digest) != http.StatusOK {
		t.Fatal("fetch-through did not cache the dataset locally")
	}
}

// TestFleetScheduleOverUncacheableDataset pins fetch-through on the
// schedule path: a node whose store budget is smaller than a dataset a
// peer holds cannot cache the fetched bytes, so every fire must analyse
// the verified bytes it fetched and record an observation, exactly as
// a by-ref request on that node is served. The owner counts the
// fetches: one when the schedule is created, then one per fire, since a
// fire audits the digest the schedule stored without resolving it
// again.
func TestFleetScheduleOverUncacheableDataset(t *testing.T) {
	ds := rbac.Figure1()
	digest, size, err := store.Digest(ds)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*store.Store, 2)
	for i, budget := range []int64{0, size - 1} { // node 1 cannot hold it
		if stores[i], err = store.New(store.Options{MaxBytes: budget}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stores[0].PutDataset(digest, size, ds); err != nil {
		t.Fatal(err)
	}
	c := newClusterWith(t, 2, nil, func(i int, o *Options) {
		o.Store = stores[i]
		o.ScheduleMinInterval = 20 * time.Millisecond
	})
	srv := c.srvs[1]

	// The first fire comes on the next scheduler tick; an hour-long
	// interval keeps it the only one.
	resp := post(t, srv, "/v1/schedules", fmt.Sprintf(`{"dataset_ref":%q,"interval":"1h"}`, digest))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, want 201", resp.StatusCode)
	}
	var sched continuous.Schedule
	if err := json.NewDecoder(resp.Body).Decode(&sched); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got continuous.Schedule
		getJSON(t, srv, "/v1/schedules/"+sched.ID, http.StatusOK, &got)
		if got.Fires > 0 {
			if got.LastError != "" || got.LastRun == nil {
				t.Fatalf("fire %d failed: last_error %q, last_run %+v", got.Fires, got.LastError, got.LastRun)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("schedule never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.swaps[0].raw.Load(); got != 2 {
		t.Fatalf("owner served %d fetches for one create and one fire, want 2", got)
	}
	if c.rawStatus(t, 1, digest) != http.StatusNotFound {
		t.Fatal("dataset over the node's budget was cached anyway")
	}
}

// TestFleetDegradationAndPeerUnavailable kills every other holder and
// pins explicit degradation: the survivor answers 503 with Retry-After
// and the peer_unavailable code in bounded time, and its fleet stats
// expose the open breaker plus the skipped peer instead of hanging or
// lying.
func TestFleetDegradationAndPeerUnavailable(t *testing.T) {
	c := newCluster(t, 2, func(i int, o *fleet.Options) {
		o.BreakerThreshold = 2
		o.BreakerCooldown = time.Hour
	})
	pr := c.upload(t, 0)
	// Two nodes, one replica: both hold it.
	c.waitHeld(t, 0, pr.Digest)
	c.waitHeld(t, 1, pr.Digest)

	dead := c.nodeFor(t, pr.Owner)
	survivor := 1 - dead
	c.srvs[dead].Close()

	// The survivor holds a replica: reads keep working with the owner
	// gone — graceful degradation, not failure.
	if resp, body := c.analyzeRef(t, survivor, pr.Digest, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica-served analyze = %d (%s)", resp.StatusCode, body)
	}

	// Drop the survivor's local copy; now the data lives only on the
	// dead node and the contract is a fast, structured 503.
	req, _ := http.NewRequest(http.MethodDelete, c.srvs[survivor].URL+"/v1/datasets/"+pr.Digest, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("local delete failed: %v", err)
	}

	start := time.Now()
	resp, body := c.analyzeRef(t, survivor, pr.Digest, "")
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("peer-unavailable answer took %v; degradation must be bounded", elapsed)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analyze with dead holder = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var envelope struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Code != CodePeerUnavailable {
		t.Fatalf("error envelope = %s, want code %q", body, CodePeerUnavailable)
	}

	// Fleet stats from the survivor: dead peer skipped, breaker open.
	sresp, err := http.Get(c.srvs[survivor].URL + "/v1/fleet/stats")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	var stats struct {
		Enabled bool `json:"enabled"`
		Fleet   struct {
			Peers []struct {
				URL     string `json:"url"`
				Breaker struct {
					State string `json:"state"`
				} `json:"breaker"`
			} `json:"peers"`
		} `json:"fleet"`
		Nodes   []json.RawMessage `json:"nodes"`
		Skipped []struct {
			Peer string `json:"peer"`
		} `json:"skipped"`
	}
	if err := json.Unmarshal(sbody, &stats); err != nil {
		t.Fatalf("fleet stats: %v (%s)", err, sbody)
	}
	if !stats.Enabled || len(stats.Skipped) != 1 || stats.Skipped[0].Peer != c.urls[dead] {
		t.Fatalf("fleet stats did not report the dead peer as skipped: %s", sbody)
	}
	if len(stats.Fleet.Peers) != 1 || stats.Fleet.Peers[0].Breaker.State != "open" {
		t.Fatalf("dead peer's breaker not open in stats: %s", sbody)
	}
}

// TestFleetStatsSingleNode pins the disabled shape: no -peers means
// enabled=false with the local slice, empty nodes, empty skipped.
func TestFleetStatsSingleNode(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/fleet/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Enabled bool `json:"enabled"`
		Self    struct {
			Node  string `json:"node"`
			State string `json:"state"`
		} `json:"self"`
		Nodes   []json.RawMessage `json:"nodes"`
		Skipped []json.RawMessage `json:"skipped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled || out.Self.Node == "" || out.Self.State != "ready" {
		t.Fatalf("single-node fleet stats = %+v", out)
	}
	if out.Nodes == nil || out.Skipped == nil || len(out.Nodes) != 0 || len(out.Skipped) != 0 {
		t.Fatalf("nodes/skipped must be present and empty, got %+v", out)
	}
}

// TestHealthzDraining pins the draining surface: readiness false flips
// the JSON state while the bare-200 liveness contract holds.
func TestHealthzDraining(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{
		NodeID:    "drainer",
		Readiness: func() bool { return false },
	}))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (alive)", resp.StatusCode)
	}
	var h fleet.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Ready || h.State != fleet.StateDraining || h.Node != "drainer" {
		t.Fatalf("draining health = %+v", h)
	}
}
