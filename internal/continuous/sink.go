package continuous

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/fleet"
)

// Webhook sinks receive tripped alerts as JSON POSTs. Delivery rides
// the same hardened client patterns as the fleet's peer calls: capped
// exponential backoff with full jitter and a bounded attempt count
// (fleet.RetryPolicy), a per-sink circuit breaker so a dead endpoint
// fails fast instead of burning retries on every alert, per-attempt
// timeouts, and a transport seam (SinkConfig.Transport) through which
// tests inject the fleet's deterministic faults.
// 4xx answers are permanent — the payload will not get better by
// resending it — while 5xx and transport errors retry.
//
// Deliveries are asynchronous: trips enqueue onto a bounded queue
// drained by one worker per manager, preserving per-sink ordering.
// When the queue is full the delivery is dropped and counted — alerts
// are a signal, not a ledger; the decision log is the ledger.

// Sink is one registered webhook endpoint.
type Sink struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// Name is an optional human label.
	Name      string    `json:"name,omitempty"`
	CreatedAt time.Time `json:"createdAt"`

	// Delivery counters and breaker state (read-only).
	Delivered int                   `json:"delivered"`
	Failed    int                   `json:"failed"`
	Dropped   int                   `json:"dropped"`
	Breaker   fleet.BreakerSnapshot `json:"breaker"`
}

// validate checks the user-settable fields.
func (s Sink) validate() error {
	u, err := url.Parse(s.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("%w: sink url %q (want an absolute http(s) URL)", ErrInvalid, s.URL)
	}
	return nil
}

// sinkState pairs the public view with the live breaker and counters.
type sinkState struct {
	mu      sync.Mutex
	sink    Sink
	breaker *fleet.Breaker
}

// newSinkBreaker builds a sink's circuit breaker from the config.
func newSinkBreaker(cfg SinkConfig) *fleet.Breaker {
	return fleet.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
}

// view snapshots the JSON-ready state.
func (s *sinkState) view() Sink {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.sink
	v.Breaker = s.breaker.Snapshot()
	return v
}

// SinkConfig tunes the delivery client.
type SinkConfig struct {
	// Attempts bounds tries per delivery; defaults to 3.
	Attempts int
	// BaseDelay/MaxDelay shape the backoff; default 50ms/2s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Timeout bounds one POST attempt; defaults to 5s.
	Timeout time.Duration
	// BreakerThreshold consecutive failed deliveries open a sink's
	// breaker; defaults to 3. BreakerCooldown is the open interval
	// before a half-open trial; defaults to 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// QueueDepth bounds undelivered trips; defaults to 128.
	QueueDepth int
	// Transport is the delivery RoundTripper — the fault-injection
	// seam; nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Jitter seeds the backoff; tests inject a deterministic one.
	Jitter func() float64
}

func (c SinkConfig) withDefaults() SinkConfig {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	return c
}

// delivery is one queued alert-to-sink send.
type delivery struct {
	sink  *sinkState
	alert Alert
}

// deliverer owns the queue, the worker, and the HTTP client.
type deliverer struct {
	cfg    SinkConfig
	client *http.Client
	queue  chan delivery
	ctx    context.Context
	hooks  Hooks
	logf   func(format string, args ...any)
	wg     sync.WaitGroup
}

func newDeliverer(ctx context.Context, cfg SinkConfig, hooks Hooks, logf func(string, ...any)) *deliverer {
	cfg = cfg.withDefaults()
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	d := &deliverer{
		cfg:    cfg,
		client: &http.Client{Transport: transport},
		queue:  make(chan delivery, cfg.QueueDepth),
		ctx:    ctx,
		hooks:  hooks,
		logf:   logf,
	}
	d.wg.Add(1)
	go d.run()
	return d
}

// enqueue hands an alert to the worker; a full queue drops and counts.
func (d *deliverer) enqueue(s *sinkState, a Alert) {
	select {
	case d.queue <- delivery{sink: s, alert: a}:
	default:
		s.mu.Lock()
		s.sink.Dropped++
		s.mu.Unlock()
		d.logf("continuous: sink %s delivery queue full; alert %s dropped", s.sink.ID, a.RuleID)
	}
}

// run drains the queue until the base context dies.
func (d *deliverer) run() {
	defer d.wg.Done()
	for {
		select {
		case <-d.ctx.Done():
			return
		case item := <-d.queue:
			d.deliver(item.sink, item.alert)
		}
	}
}

// errBreakerOpen is the fast-fail for a sink whose circuit is open.
var errBreakerOpen = fmt.Errorf("continuous: sink breaker open")

// deliver POSTs one alert with retry/backoff, feeding the sink's
// breaker per attempt. The outcome lands on the sink's counters and
// the SinkDelivery hook.
func (d *deliverer) deliver(s *sinkState, a Alert) {
	payload, _ := json.Marshal(a)
	policy := fleet.RetryPolicy{
		MaxAttempts: d.cfg.Attempts,
		BaseDelay:   d.cfg.BaseDelay,
		MaxDelay:    d.cfg.MaxDelay,
		Jitter:      d.cfg.Jitter,
	}
	s.mu.Lock()
	sinkURL, sinkID := s.sink.URL, s.sink.ID
	s.mu.Unlock()
	err := policy.Do(d.ctx, func(ctx context.Context) error {
		if !s.breaker.Allow() {
			// Open circuit: give up on this alert without consuming
			// attempts against the endpoint; the breaker's cooldown (or
			// a later trial) reopens the path.
			return fleet.Permanent(errBreakerOpen)
		}
		attemptCtx, cancel := context.WithTimeout(ctx, d.cfg.Timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, sinkURL, bytes.NewReader(payload))
		if err != nil {
			s.breaker.Record(false)
			return fleet.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Rolediet-Alert", string(a.Type))
		resp, err := d.client.Do(req)
		if err != nil {
			s.breaker.Record(false)
			return err
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		switch {
		case resp.StatusCode < 300:
			s.breaker.Record(true)
			return nil
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			// The endpoint understood us and said no; resending the
			// same payload cannot succeed. Not an endpoint-health
			// signal, so the breaker stays untouched.
			return fleet.Permanent(fmt.Errorf("sink answered %s", resp.Status))
		default:
			s.breaker.Record(false)
			return fmt.Errorf("sink answered %s", resp.Status)
		}
	})
	s.mu.Lock()
	if err == nil {
		s.sink.Delivered++
	} else {
		s.sink.Failed++
	}
	s.mu.Unlock()
	if err != nil {
		d.logf("continuous: deliver alert %s to sink %s: %v", a.RuleID, sinkID, err)
	}
	if d.hooks.SinkDelivery != nil {
		d.hooks.SinkDelivery(err == nil)
	}
}

// close waits for the worker (the base context must already be done).
func (d *deliverer) close() { d.wg.Wait() }
