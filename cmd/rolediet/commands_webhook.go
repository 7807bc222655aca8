package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// cmdWebhook runs a tiny webhook receiver: every POST body arrives as
// one JSONL line on -out (stdout by default). It is the counterpart of
// roledietd's alert sinks for end-to-end tests and local experiments —
// point a sink at it and watch the alerts land. With -count N it exits
// successfully after N deliveries; -timeout bounds the wait either way.
func cmdWebhook(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("webhook", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address; port 0 picks a free port")
	out := fs.String("out", "", "file receiving one JSONL line per delivery; empty writes to stdout")
	count := fs.Int("count", 0, "exit successfully after this many deliveries; 0 runs until -timeout or interrupt")
	timeout := fs.Duration("timeout", time.Minute, "maximum time to serve; 0 serves forever")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sink := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("webhook: %w", err)
		}
		defer f.Close()
		sink = f
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("webhook: %w", err)
	}
	// The chosen address goes to stderr so scripts can scrape it while
	// the JSONL stream stays clean on -out/stdout.
	fmt.Fprintf(stderr, "webhook listening on http://%s\n", ln.Addr())

	var (
		mu   sync.Mutex
		seen int
		done = make(chan struct{})
		once sync.Once
	)
	srv := &http.Server{
		ReadHeaderTimeout: 10 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			fmt.Fprintf(sink, "%s\n", body)
			if f, ok := sink.(*os.File); ok {
				f.Sync() // a killed test run must not lose the line
			}
			seen++
			reached := *count > 0 && seen >= *count
			mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
			if reached {
				once.Do(func() { close(done) })
			}
		}),
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	var timer <-chan time.Time
	if *timeout > 0 {
		t := time.NewTimer(*timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-done:
	case <-timer:
		mu.Lock()
		n := seen
		mu.Unlock()
		if *count > 0 && n < *count {
			srv.Close()
			return fmt.Errorf("webhook: timed out with %d/%d deliveries", n, *count)
		}
	case err := <-errCh:
		return fmt.Errorf("webhook: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	return nil
}
