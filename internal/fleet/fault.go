package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Deterministic fault injection for the fleet transport. The daemon
// wires it from -fault-inject; unit tests and the end-to-end cluster
// test drive the same seam, so the failure paths they exercise are
// exactly the production code paths.
//
// A spec is a comma-separated list of directives applied to *outbound
// peer requests* in arrival order (counter-based, no randomness — the
// Nth run of a test injects exactly what the first did):
//
//	drop:N       fail the next N requests with a transport error
//	             before any bytes reach the peer
//	5xx:N        answer the next N requests with a synthesized
//	             503 (the peer is never contacted)
//	delay:D      add latency D (a Go duration) to every request
//	slowbody:D   deliver response bodies one byte at a time with D
//	             between reads (a hung-peer simulation the
//	             per-attempt timeout must cut off)
//
// Counted directives consume themselves; duration directives apply to
// every request. Example: "delay:50ms,5xx:2" delays everything and
// 503s the first two requests.

// faultRule is one parsed directive.
type faultRule struct {
	mode      string // drop, 5xx, delay, slowbody
	remaining int    // for counted modes
	d         time.Duration
}

// Injector is an http.RoundTripper injecting the parsed faults ahead
// of a real transport. A nil *Injector is transparent.
type Injector struct {
	next  http.RoundTripper
	mu    sync.Mutex
	rules []*faultRule
}

// NewInjector parses spec and wraps next (nil next means
// http.DefaultTransport). An empty spec returns (nil, nil): no
// injection layer at all.
func NewInjector(spec string, next http.RoundTripper) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if next == nil {
		next = http.DefaultTransport
	}
	var rules []*faultRule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		mode, arg, _ := strings.Cut(part, ":")
		r := &faultRule{mode: mode}
		switch mode {
		case "drop", "5xx":
			r.remaining = 1
			if arg != "" {
				n, err := strconv.Atoi(arg)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("fleet: fault %q: want %s:N with N >= 1", part, mode)
				}
				r.remaining = n
			}
		case "delay", "slowbody":
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fleet: fault %q: want %s:duration", part, mode)
			}
			r.d = d
		default:
			return nil, fmt.Errorf("fleet: unknown fault directive %q (want drop, 5xx, delay, slowbody)", part)
		}
		rules = append(rules, r)
	}
	return &Injector{next: next, rules: rules}, nil
}

// take consumes one application of a counted mode, or reports a
// duration mode's parameter.
func (in *Injector) take(mode string) (time.Duration, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.mode != mode {
			continue
		}
		switch mode {
		case "delay", "slowbody":
			return r.d, true
		default:
			if r.remaining > 0 {
				r.remaining--
				return 0, true
			}
		}
	}
	return 0, false
}

// RoundTrip implements http.RoundTripper.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	if in == nil {
		return http.DefaultTransport.RoundTrip(req)
	}
	if d, ok := in.take("delay"); ok {
		if err := sleepCtx(req.Context(), d); err != nil {
			return nil, err
		}
	}
	if _, ok := in.take("drop"); ok {
		return nil, fmt.Errorf("fleet: injected fault: connection dropped (%s %s)", req.Method, req.URL)
	}
	if _, ok := in.take("5xx"); ok {
		body := []byte(`{"error":"injected fault","code":"internal"}`)
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	resp, err := in.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d, ok := in.take("slowbody"); ok && resp.Body != nil {
		resp.Body = &slowBody{inner: resp.Body, ctx: req.Context(), d: d}
	}
	return resp, nil
}

// slowBody trickles a response body one byte per read with a delay
// between reads, honouring the request context so per-attempt timeouts
// cut it off.
type slowBody struct {
	inner io.ReadCloser
	ctx   context.Context
	d     time.Duration
}

func (s *slowBody) Read(p []byte) (int, error) {
	if s.d > 0 {
		t := time.NewTimer(s.d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-s.ctx.Done():
			return 0, s.ctx.Err()
		}
	}
	if len(p) > 1 {
		p = p[:1]
	}
	return s.inner.Read(p)
}

func (s *slowBody) Close() error { return s.inner.Close() }
