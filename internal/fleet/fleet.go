// Package fleet lets N roledietd instances split a dataset corpus with
// no coordinator and no consensus. Membership is a static peer list;
// placement is rendezvous hashing over content digests (each dataset
// gets an owner and a configurable number of replicas); and every
// node-to-node call goes through one hardened client — per-attempt
// timeouts, capped exponential backoff with full jitter, a fleet-wide
// retry budget, and a per-peer circuit breaker fed by an async
// /healthz prober — so a dead or hung peer costs a bounded, small
// amount of time instead of a queue of stuck requests.
//
// The design follows OPA's bundle/discovery shape: polling plus
// revision-style generation counters, never consensus. Content
// addressing is what makes that sufficient — a digest either exists
// with the right bytes or it does not, so replication is idempotent
// and conflict-free by construction, and any holder is as
// authoritative as the owner.
//
// Failure is an expected state, not an exception: callers that cannot
// reach any holder of a digest get ErrPeerUnavailable quickly (the
// server maps it to 503 + Retry-After), never a hang; scatter-gather
// operations report which peers were skipped instead of failing whole.
package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// ErrPeerUnavailable means a required peer (or every holder of a
// digest) could not be reached within the retry policy: dead, circuit
// open, or persistently erroring. The HTTP layer maps it to 503 with
// a Retry-After hint and the peer_unavailable error code.
var ErrPeerUnavailable = errors.New("fleet: peer unavailable")

// ErrNotFound means every reachable holder answered 404: the digest is
// not in the fleet (never uploaded, or deleted everywhere).
var ErrNotFound = errors.New("fleet: dataset not held by any reachable peer")

// StatusError is a non-2xx peer answer that is a definitive response
// rather than a peer failure (4xx).
type StatusError struct {
	Status int
	Body   []byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("fleet: peer answered %d: %s", e.Status, bytes.TrimSpace(e.Body))
}

// Options configures a Fleet.
type Options struct {
	// Self is this node's own base URL as it appears in Peers.
	Self string
	// Peers is the full static membership, Self included. Order does
	// not matter: rendezvous ranking is permutation-invariant.
	Peers []string
	// Replicas is how many holders beyond the owner each dataset gets;
	// defaults to 1 (owner + one replica). Capped at len(Peers)-1.
	Replicas int
	// AttemptTimeout bounds every single peer round trip (probes
	// included); defaults to 2s.
	AttemptTimeout time.Duration
	// MaxAttempts bounds attempts per peer call (first try included);
	// defaults to 3.
	MaxAttempts int
	// BaseDelay / MaxDelay shape the full-jitter backoff between
	// attempts; default 50ms / 2s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// RetryBudget is the burst of retries allowed from a standing
	// start, refilled by RetryPerSuccess per successful call; defaults
	// to 10 and 0.1. A flapping fleet degrades to first-attempt-only
	// instead of amplifying load.
	RetryBudget     float64
	RetryPerSuccess float64
	// BreakerThreshold consecutive failures open a peer's circuit for
	// BreakerCooldown; defaults 3 and 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval is the /healthz polling cadence; defaults to 1s.
	// Negative disables the prober (unit tests drive probes manually).
	ProbeInterval time.Duration
	// FaultSpec, when non-empty, wraps the transport in a
	// deterministic fault Injector (see NewInjector for the syntax).
	FaultSpec string
	// Transport is the underlying RoundTripper, the seam FaultSpec
	// wraps; defaults to http.DefaultTransport.
	Transport http.RoundTripper
	// BaseContext stops the prober when cancelled; defaults to
	// context.Background(). Close also stops it.
	BaseContext context.Context
	// Logf receives prober transitions and replication failures;
	// defaults to log.Printf.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 50 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Second
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 10
	}
	if o.RetryPerSuccess <= 0 {
		o.RetryPerSuccess = 0.1
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = time.Second
	}
	if o.BaseContext == nil {
		o.BaseContext = context.Background()
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Counters are the fleet client's cumulative counters.
type Counters struct {
	// Attempts counts individual peer round trips; Retries the subset
	// that were re-attempts after a failure.
	Attempts uint64 `json:"attempts"`
	Retries  uint64 `json:"retries"`
	// Forwards / Replications / Fetches count the three fleet
	// operations, with their failure tallies alongside.
	Forwards            uint64 `json:"forwards"`
	ForwardFailures     uint64 `json:"forwardFailures"`
	Replications        uint64 `json:"replications"`
	ReplicationFailures uint64 `json:"replicationFailures"`
	Fetches             uint64 `json:"fetches"`
	FetchFailures       uint64 `json:"fetchFailures"`
}

// Fleet is the peer layer one daemon holds: membership, placement,
// health, and the hardened client.
type Fleet struct {
	opts   Options
	self   string
	peers  []string // normalized, self included
	client *http.Client
	budget *Budget

	mu       sync.Mutex
	states   map[string]*peerState // keyed by peer URL, self excluded
	counters Counters

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New validates the membership and starts the health prober. Self must
// appear in Peers (after URL normalization).
func New(opts Options) (*Fleet, error) {
	opts = opts.withDefaults()
	self, err := normalizePeer(opts.Self)
	if err != nil {
		return nil, fmt.Errorf("fleet: self: %w", err)
	}
	seen := make(map[string]bool)
	var peers []string
	for _, p := range opts.Peers {
		np, err := normalizePeer(p)
		if err != nil {
			return nil, fmt.Errorf("fleet: peer %q: %w", p, err)
		}
		if !seen[np] {
			seen[np] = true
			peers = append(peers, np)
		}
	}
	if !seen[self] {
		return nil, fmt.Errorf("fleet: self %q is not in the peer list %v", self, peers)
	}
	if opts.Replicas > len(peers)-1 {
		opts.Replicas = len(peers) - 1
	}
	transport := opts.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	if inj, err := NewInjector(opts.FaultSpec, transport); err != nil {
		return nil, err
	} else if inj != nil {
		transport = inj
	}
	f := &Fleet{
		opts:   opts,
		self:   self,
		peers:  peers,
		client: &http.Client{Transport: transport},
		budget: NewBudget(opts.RetryBudget, opts.RetryPerSuccess),
		states: make(map[string]*peerState),
	}
	for _, p := range peers {
		if p == self {
			continue
		}
		f.states[p] = &peerState{
			url:     p,
			state:   StateUnknown,
			breaker: NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		}
	}
	if opts.ProbeInterval > 0 && len(f.states) > 0 {
		ctx, cancel := context.WithCancel(opts.BaseContext)
		f.cancel = cancel
		f.wg.Add(1)
		go f.probeLoop(ctx)
	}
	return f, nil
}

// normalizePeer canonicalizes one peer base URL.
func normalizePeer(p string) (string, error) {
	p = strings.TrimRight(strings.TrimSpace(p), "/")
	u, err := url.Parse(p)
	if err != nil {
		return "", err
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("want http(s)://host[:port], got %q", p)
	}
	return p, nil
}

// Close stops the prober and idle connections.
func (f *Fleet) Close() {
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
	f.client.CloseIdleConnections()
}

// Enabled reports whether there is any peer beyond this node.
func (f *Fleet) Enabled() bool { return f != nil && len(f.peers) > 1 }

// Self is this node's normalized base URL.
func (f *Fleet) Self() string { return f.self }

// Peers is the full normalized membership, self included.
func (f *Fleet) Peers() []string { return append([]string(nil), f.peers...) }

// Rank orders all peers for a digest (owner first).
func (f *Fleet) Rank(digest string) []string { return Rank(f.peers, digest) }

// Holders is the prefix of Rank that should hold the digest: the owner
// plus Replicas replicas.
func (f *Fleet) Holders(digest string) []string {
	return f.Rank(digest)[:1+f.opts.Replicas]
}

// Owner is the digest's rank-0 peer.
func (f *Fleet) Owner(digest string) string { return f.Rank(digest)[0] }

// peerStates snapshots the remote peer state table.
func (f *Fleet) peerStates() []*peerState {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*peerState, 0, len(f.states))
	for _, p := range f.peers {
		if ps, ok := f.states[p]; ok {
			out = append(out, ps)
		}
	}
	return out
}

// PeerReady reports whether a peer's last probe saw it ready (not
// down, not draining). Unprobed peers count as ready so a cold fleet
// can route before the first probe round lands.
func (f *Fleet) PeerReady(peer string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	ps, ok := f.states[peer]
	if !ok {
		return false
	}
	return ps.state == StateReady || ps.state == StateUnknown
}

// policy builds the retry policy for one logical call.
func (f *Fleet) policy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: f.opts.MaxAttempts,
		BaseDelay:   f.opts.BaseDelay,
		MaxDelay:    f.opts.MaxDelay,
		Budget:      f.budget,
	}
}

// PeerResponse is a successful (2xx) peer answer.
type PeerResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// Do performs one hardened call against a peer: breaker gate, retries
// with per-attempt timeouts and jittered backoff, 5xx and transport
// errors retried, 4xx returned as a definitive *StatusError. An
// unreachable peer yields an error wrapping ErrPeerUnavailable in a
// bounded amount of time — at most MaxAttempts×(AttemptTimeout+
// backoff), and typically one fast failure once the circuit is open.
func (f *Fleet) Do(ctx context.Context, method, peer, path string, body []byte, header http.Header) (*PeerResponse, error) {
	f.mu.Lock()
	ps, ok := f.states[peer]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: %q is not a known peer", peer)
	}
	var out *PeerResponse
	attempt := 0
	err := f.policy().Do(ctx, func(ctx context.Context) error {
		attempt++
		f.mu.Lock()
		f.counters.Attempts++
		if attempt > 1 {
			f.counters.Retries++
		}
		f.mu.Unlock()
		if !ps.breaker.Allow() {
			return Permanent(fmt.Errorf("%w: %s: circuit open", ErrPeerUnavailable, peer))
		}
		resp, err := f.attempt(ctx, method, peer+path, body, header)
		switch {
		case err != nil:
			ps.breaker.Record(false)
			return fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, peer, err)
		case resp.Status >= 500:
			ps.breaker.Record(false)
			return fmt.Errorf("%w: %s: status %d: %s", ErrPeerUnavailable, peer,
				resp.Status, bytes.TrimSpace(resp.Body))
		case resp.Status >= 400:
			ps.breaker.Record(true) // the peer is healthy; the answer is just "no"
			return Permanent(&StatusError{Status: resp.Status, Body: resp.Body})
		default:
			ps.breaker.Record(true)
			out = resp
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// attempt is one round trip under the per-attempt timeout.
func (f *Fleet) attempt(ctx context.Context, method, u string, body []byte, header http.Header) (*PeerResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, f.opts.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read peer response: %w", err)
	}
	return &PeerResponse{Status: resp.StatusCode, Header: resp.Header, Body: b}, nil
}

// FetchDataset retrieves a digest's canonical bytes from its holders,
// walking the rendezvous ranking (owner first, self skipped) and
// degrading to the next holder on failure. Every fetched body is
// re-verified against the digest, so a corrupt or truncated peer copy
// is rejected, not cached. ErrNotFound means every reachable holder
// answered 404; ErrPeerUnavailable means no holder could be reached.
func (f *Fleet) FetchDataset(ctx context.Context, digest string) (body []byte, peer string, err error) {
	var (
		lastUnavail error
		sawMissing  bool
	)
	for _, p := range f.Holders(digest) {
		if p == f.self {
			continue
		}
		resp, err := f.Do(ctx, http.MethodGet, p, "/v1/datasets/"+digest+"/raw", nil, nil)
		if err != nil {
			var se *StatusError
			if errors.As(err, &se) && se.Status == http.StatusNotFound {
				sawMissing = true
				continue
			}
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
			lastUnavail = err
			continue
		}
		sum := sha256.Sum256(resp.Body)
		if hex.EncodeToString(sum[:]) != digest {
			f.opts.Logf("fleet: peer %s served corrupt bytes for %s; trying next holder", p, digest)
			lastUnavail = fmt.Errorf("%w: %s: served bytes not matching digest", ErrPeerUnavailable, p)
			continue
		}
		f.mu.Lock()
		f.counters.Fetches++
		f.mu.Unlock()
		return resp.Body, p, nil
	}
	f.mu.Lock()
	f.counters.FetchFailures++
	f.mu.Unlock()
	switch {
	case lastUnavail != nil:
		return nil, "", lastUnavail
	case sawMissing:
		return nil, "", fmt.Errorf("%w: %s", ErrNotFound, digest)
	default:
		// Every holder was self: the digest should be local and is not.
		return nil, "", fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
}

// NoteForward / NoteReplication let the HTTP layer tally its fleet
// operations into the shared counters.
func (f *Fleet) NoteForward(ok bool) {
	f.note(func(c *Counters) {
		c.Forwards++
		if !ok {
			c.ForwardFailures++
		}
	})
}

func (f *Fleet) NoteReplication(ok bool) {
	f.note(func(c *Counters) {
		c.Replications++
		if !ok {
			c.ReplicationFailures++
		}
	})
}

func (f *Fleet) note(fn func(*Counters)) {
	f.mu.Lock()
	fn(&f.counters)
	f.mu.Unlock()
}

// PeerStats is one remote peer's health and circuit view.
type PeerStats struct {
	URL        string          `json:"url"`
	Node       string          `json:"node,omitempty"`
	State      string          `json:"state"`
	Generation uint64          `json:"generation"`
	Breaker    BreakerSnapshot `json:"breaker"`
	Boot       string          `json:"boot,omitempty"`
	LastError  string          `json:"lastError,omitempty"`
	LastProbe  int64           `json:"lastProbeUnixMs,omitempty"`
}

// Stats is the fleet client's JSON-ready observability payload.
type Stats struct {
	Self     string      `json:"self"`
	Replicas int         `json:"replicas"`
	Peers    []PeerStats `json:"peers"`
	Counters Counters    `json:"counters"`
}

// unixMs renders a probe timestamp for the stats payload (0 = never).
func unixMs(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// Stats snapshots membership, per-peer breaker/health state, and the
// client counters.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{Self: f.self, Replicas: f.opts.Replicas, Counters: f.counters}
	for _, p := range f.peers {
		ps, ok := f.states[p]
		if !ok {
			continue
		}
		st.Peers = append(st.Peers, PeerStats{
			URL:        ps.url,
			Node:       ps.node,
			State:      ps.state,
			Generation: ps.generation,
			Breaker:    ps.breaker.Snapshot(),
			Boot:       ps.boot,
			LastError:  ps.lastErr,
			LastProbe:  unixMs(ps.lastProbe),
		})
	}
	return st
}
