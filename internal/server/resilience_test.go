package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// decodeError reads the JSON error envelope every failure response
// carries.
func decodeError(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error response is not the JSON envelope: %v", err)
	}
	return body.Error
}

// TestRequestTimeoutReturns504 exercises the per-request deadline: a
// timeout too short for any analysis must surface as 504 with a JSON
// body.
func TestRequestTimeoutReturns504(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{RequestTimeout: time.Nanosecond}))
	t.Cleanup(srv.Close)

	for _, path := range []string{"/v1/analyze", "/v1/consolidate", "/v1/suggest"} {
		resp, err := http.Post(srv.URL+path, "application/json", figure1Body(t))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("POST %s status = %d, want 504", path, resp.StatusCode)
		}
		if msg := decodeError(t, resp); !strings.Contains(msg, "timeout") {
			t.Fatalf("POST %s error = %q, want a timeout message", path, msg)
		}
	}

	// The health probe bypasses the timeout entirely.
	resp, err := http.Get(srv.URL + healthPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
}

// TestPanicRecovery proves a panicking handler yields a 500 JSON error
// and the server keeps answering afterwards.
func TestPanicRecovery(t *testing.T) {
	var logged atomic.Bool
	h := &handler{opts: Options{Logf: func(string, ...any) { logged.Store(true) }}.withDefaults()}
	mux := http.NewServeMux()
	mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	srv := httptest.NewServer(h.withRecovery(mux))
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/panic")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic status = %d, want 500", resp.StatusCode)
	}
	if msg := decodeError(t, resp); msg == "" {
		t.Fatal("panic response has an empty error message")
	}
	if !logged.Load() {
		t.Fatal("panic was not logged")
	}

	// Same server, next request: still alive.
	resp, err = http.Get(srv.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d, want 200 (server should survive the panic)", resp.StatusCode)
	}
}

// TestLoadSheddingReturns429 saturates a MaxConcurrent=1 server with a
// deliberately stalled request and checks that (a) further /v1/*
// requests are shed with 429 + Retry-After, (b) /healthz keeps
// answering 200 throughout, and (c) the server recovers once the
// stalled request goes away.
func TestLoadSheddingReturns429(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{MaxConcurrent: 1, RetryAfter: 2 * time.Second}))
	t.Cleanup(srv.Close)

	// Occupy the single slot: send headers plus an incomplete body so
	// the handler blocks inside the body read while holding the
	// semaphore.
	stall := func() net.Conn {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(conn, "POST /v1/analyze HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: 1000000\r\n\r\n{"); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	conn := stall()
	defer func() { conn.Close() }()

	// The stalled request needs a moment to reach the limiter; poll
	// until shedding kicks in.
	deadline := time.Now().Add(10 * time.Second)
	var shed *http.Response
	buf := make([]byte, 64)
	for {
		resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", figure1Body(t))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			shed = resp
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("saturated server never returned 429 (last status %d)", resp.StatusCode)
		}
		// A probe can take the slot before the stall reaches the
		// limiter; the stall is then the request that gets shed, and
		// every later probe would be admitted. Detect that answer on
		// the stalled connection and stall again.
		if err := conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if n, _ := conn.Read(buf); n > 0 && strings.Contains(string(buf[:n]), " 429 ") {
			conn.Close()
			conn = stall()
		}
	}
	if got := shed.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	if msg := decodeError(t, shed); !strings.Contains(msg, "capacity") {
		t.Fatalf("shed error = %q, want a capacity message", msg)
	}

	// Liveness stays green while the service is saturated.
	resp, err := http.Get(srv.URL + healthPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status under saturation = %d, want 200", resp.StatusCode)
	}

	// Release the slot and poll until normal service resumes.
	conn.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", figure1Body(t))
		if err != nil {
			t.Fatal(err)
		}
		status := resp.StatusCode
		resp.Body.Close()
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover after the stalled request ended (last status %d)", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInvalidDatasetReturns400 posts a parseable but inconsistent
// dataset (an assignment referencing an unknown role) and expects the
// validation 400, not an engine error.
func TestInvalidDatasetReturns400(t *testing.T) {
	srv := newServer(t)
	body := `{"users":["u1"],"roles":["r1"],"permissions":[],` +
		`"userAssignments":[{"role":"ghost","user":"u1"}],"permissionAssignments":[]}`
	for _, path := range []string{"/v1/analyze", "/v1/consolidate", "/v1/suggest"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s status = %d, want 400", path, resp.StatusCode)
		}
		if msg := decodeError(t, resp); msg == "" {
			t.Fatalf("POST %s: empty error message", path)
		}
	}
}
