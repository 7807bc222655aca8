// Command roledietd serves the RBAC inefficiency detection framework
// over HTTP. See internal/server for the endpoint contract.
//
//	roledietd -addr :8080
//	curl -X POST --data-binary @org.json 'localhost:8080/v1/analyze?threshold=1'
//
// Resilience knobs (see internal/server for the error contract):
//
//	-request-timeout  per-request deadline; analyses exceeding it stop
//	                  computing and the client gets 504 (0 disables)
//	-max-concurrent   in-flight /v1/* request cap; excess load is shed
//	                  with 429 + Retry-After (0 disables)
//	-drain-timeout    graceful-shutdown grace on SIGINT/SIGTERM; when
//	                  it expires, in-flight analyses are cancelled so
//	                  they stop burning CPU and connections are closed
//
// Async job knobs (POST /v1/jobs and friends; see internal/server):
//
//	-job-workers     worker goroutines executing queued jobs
//	-job-queue       queued-job backlog; full queue sheds with 429
//	-job-result-ttl  how long finished job results stay fetchable
//
// Engine knobs:
//
//	-default-workers  grouping workers applied to requests that don't
//	                  set workers themselves (via the workers query
//	                  parameter or the options body); >= 2 parallelises
//
// Streaming ingest and mutation-session knobs (see internal/server and
// internal/session):
//
//	-max-upload-bytes  decompressed byte cap for POST /v1/datasets,
//	                   enforced while the upload streams (400
//	                   payload_too_large past it); 0 uses -max-body-mib
//	-session-ttl       idle expiry for live mutation sessions
//	-max-sessions      live session cap per node (429 beyond it)
//
// Dataset registry and result cache knobs (see internal/store):
//
//	-store-dir        directory persisting registered datasets and warm
//	                  cache entries across restarts; empty keeps the
//	                  store memory-only
//	-store-max-bytes  byte budget shared by datasets and cached results;
//	                  least-recently-used entries are evicted beyond it
//	-store-ttl        how long cached analysis results stay servable
//
// Fleet knobs (sharded multi-node deployment; see internal/fleet):
//
//	-peers                comma-separated base URLs of every node,
//	                      this one included; empty runs single-node
//	-self                 this node's own URL from the -peers list
//	-node-id              stable name reported by /healthz and stats
//	-replicas             extra holders per dataset beyond the owner
//	-peer-timeout         per-attempt deadline for any peer call
//	-peer-retries         attempts per peer call (retries = n-1)
//	-peer-probe-interval  async /healthz probe cadence; <0 disables
//	-peer-breaker-threshold / -peer-breaker-cooldown
//	                      consecutive failures opening a peer's
//	                      circuit, and how long it stays open
//	-fault-inject         deterministic fault spec for the peer
//	                      transport (testing only); the ROLEDIET_FAULT
//	                      environment variable is the fallback
//
// Continuous-audit knobs (schedules, alert rules, webhook sinks, and
// the decision log; see internal/continuous and internal/server):
//
//	-schedule-min-interval  floor for POST /v1/schedules intervals
//	-decision-buffer / -decision-flush-interval
//	                        decision-log flush batching; with -store-dir
//	                        set the log persists to
//	                        <store-dir>/decisions.jsonl and is replayed
//	                        on restart
//	-sink-attempts / -sink-timeout
//	                        webhook delivery attempts per alert and the
//	                        per-attempt deadline
//	-sink-breaker-threshold / -sink-breaker-cooldown
//	                        consecutive delivery failures opening a
//	                        sink's circuit, and how long it stays open
//	-sink-fault-inject      deterministic fault spec for the webhook
//	                        transport (testing only; ROLEDIET_SINK_FAULT
//	                        env is the fallback)
//
// /healthz and /metrics are exempt from the timeout and the limiter, so probes keep
// answering while the service is saturated or draining; its JSON body
// reports the node ID, build revision, boot ID, and ready/draining
// state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("roledietd", flag.ContinueOnError)
	var (
		addr           = fs.String("addr", ":8080", "listen address")
		maxBodyMiB     = fs.Int64("max-body-mib", 256, "maximum request body size in MiB")
		readTimeout    = fs.Duration("read-timeout", 2*time.Minute, "HTTP read timeout")
		requestTimeout = fs.Duration("request-timeout", 5*time.Minute,
			"per-request deadline including analysis; 0 disables (504 on expiry)")
		maxConcurrent = fs.Int("max-concurrent", 2*runtime.GOMAXPROCS(0),
			"maximum concurrently handled /v1/* requests; 0 disables (429 when exceeded)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second,
			"graceful-shutdown grace before in-flight analyses are cancelled")
		jobWorkers = fs.Int("job-workers", runtime.GOMAXPROCS(0),
			"worker goroutines executing async jobs")
		jobQueue = fs.Int("job-queue", 64,
			"async job queue depth; submissions beyond it are shed with 429")
		jobResultTTL = fs.Duration("job-result-ttl", 15*time.Minute,
			"retention of finished async job results before they expire (404)")
		defaultWorkers = fs.Int("default-workers", 0,
			"grouping workers applied to requests that don't set workers themselves; 0 keeps the serial default, >= 2 parallelises")
		maxUploadBytes = fs.Int64("max-upload-bytes", 0,
			"byte cap for POST /v1/datasets bodies (decompressed), enforced as the upload streams; 0 uses -max-body-mib")
		sessionTTL = fs.Duration("session-ttl", 30*time.Minute,
			"idle expiry for live mutation sessions (POST /v1/sessions)")
		maxSessions = fs.Int("max-sessions", 128,
			"live mutation session cap per node; creations beyond it are shed with 429")
		storeDir = fs.String("store-dir", "",
			"directory persisting registered datasets and warm cache entries across restarts; empty keeps the store memory-only")
		storeMaxBytes = fs.Int64("store-max-bytes", 512<<20,
			"byte budget shared by registered datasets and cached results; LRU eviction beyond it")
		storeTTL = fs.Duration("store-ttl", time.Hour,
			"retention of cached analysis results")
		peers = fs.String("peers", "",
			"comma-separated base URLs of every fleet node, this one included; empty runs single-node")
		self = fs.String("self", "",
			"this node's own base URL from the -peers list; required when -peers is set")
		nodeID = fs.String("node-id", "",
			"stable node name reported by /healthz and fleet stats; defaults to a per-process identifier")
		replicas = fs.Int("replicas", 1,
			"extra holders per dataset beyond its rendezvous owner")
		peerTimeout = fs.Duration("peer-timeout", 2*time.Second,
			"per-attempt deadline for any single peer call")
		peerRetries = fs.Int("peer-retries", 3,
			"attempts per peer call including the first; capped exponential backoff with full jitter between them")
		peerProbeInterval = fs.Duration("peer-probe-interval", time.Second,
			"async peer /healthz probe cadence; negative disables probing")
		breakerThreshold = fs.Int("peer-breaker-threshold", 3,
			"consecutive failures (requests or probes) that open a peer's circuit")
		breakerCooldown = fs.Duration("peer-breaker-cooldown", 5*time.Second,
			"how long an open circuit waits before trialling the peer again")
		faultInject = fs.String("fault-inject", "",
			"deterministic fault spec for the peer transport, e.g. drop:2,delay:100ms (testing; ROLEDIET_FAULT env is the fallback)")
		scheduleMinInterval = fs.Duration("schedule-min-interval", 30*time.Second,
			"floor for continuous-audit schedule intervals (POST /v1/schedules)")
		decisionBuffer = fs.Int("decision-buffer", 0,
			"decision-log flush batch size; 0 uses the subsystem default")
		decisionFlushInterval = fs.Duration("decision-flush-interval", 0,
			"decision-log flush timer; 0 uses the subsystem default")
		sinkAttempts = fs.Int("sink-attempts", 3,
			"webhook delivery attempts per alert including the first; capped exponential backoff between them")
		sinkTimeout = fs.Duration("sink-timeout", 5*time.Second,
			"per-attempt deadline for one webhook POST")
		sinkBreakerThreshold = fs.Int("sink-breaker-threshold", 3,
			"consecutive delivery failures that open a sink's circuit")
		sinkBreakerCooldown = fs.Duration("sink-breaker-cooldown", 5*time.Second,
			"how long an open sink circuit waits before trialling the sink again")
		sinkFaultInject = fs.String("sink-fault-inject", "",
			"deterministic fault spec for the webhook transport, e.g. 5xx:2 (testing; ROLEDIET_SINK_FAULT env is the fallback)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Every request context derives from baseCtx; cancelling it aborts
	// the engine loops of any analysis still in flight.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()

	st, err := store.New(store.Options{
		Dir:         *storeDir,
		MaxBytes:    *storeMaxBytes,
		TTL:         *storeTTL,
		BaseContext: baseCtx,
		Logf:        log.Printf,
	})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer st.Close()

	// ready flips to false the moment a shutdown signal arrives, so
	// /healthz reports "draining" while in-flight work finishes and
	// peers stop routing new fleet work here.
	var ready atomic.Bool
	ready.Store(true)

	var fl *fleet.Fleet
	if *peers != "" {
		spec := *faultInject
		if spec == "" {
			spec = os.Getenv("ROLEDIET_FAULT")
		}
		fl, err = fleet.New(fleet.Options{
			Self:             *self,
			Peers:            strings.Split(*peers, ","),
			Replicas:         *replicas,
			AttemptTimeout:   *peerTimeout,
			MaxAttempts:      *peerRetries,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			ProbeInterval:    *peerProbeInterval,
			FaultSpec:        spec,
			BaseContext:      baseCtx,
			Logf:             log.Printf,
		})
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		defer fl.Close()
	}

	// The decision log persists next to the store when one is on disk;
	// a memory-only store keeps the log memory-only too.
	decisionLogPath := ""
	if *storeDir != "" {
		decisionLogPath = filepath.Join(*storeDir, "decisions.jsonl")
	}
	sinkSpec := *sinkFaultInject
	if sinkSpec == "" {
		sinkSpec = os.Getenv("ROLEDIET_SINK_FAULT")
	}
	sinkTransport, err := fleet.NewInjector(sinkSpec, nil)
	if err != nil {
		return fmt.Errorf("sink-fault-inject: %w", err)
	}
	var sinkRT http.RoundTripper
	if sinkTransport != nil {
		sinkRT = sinkTransport
	}

	hnd := server.NewHandler(server.Options{
		Store:          st,
		Fleet:          fl,
		NodeID:         *nodeID,
		Readiness:      ready.Load,
		MaxBodyBytes:   *maxBodyMiB << 20,
		MaxUploadBytes: *maxUploadBytes,
		SessionTTL:     *sessionTTL,
		MaxSessions:    *maxSessions,
		RequestTimeout: *requestTimeout,
		MaxConcurrent:  *maxConcurrent,
		JobWorkers:     *jobWorkers,
		JobQueueDepth:  *jobQueue,
		JobResultTTL:   *jobResultTTL,
		// Jobs outlive their submitting request but not the daemon:
		// cancelling baseCtx during a forced shutdown aborts them too.
		BaseContext:           baseCtx,
		DefaultWorkers:        *defaultWorkers,
		DecisionLogPath:       decisionLogPath,
		DecisionBuffer:        *decisionBuffer,
		DecisionFlushInterval: *decisionFlushInterval,
		ScheduleMinInterval:   *scheduleMinInterval,
		SinkAttempts:          *sinkAttempts,
		SinkTimeout:           *sinkTimeout,
		SinkBreakerThreshold:  *sinkBreakerThreshold,
		SinkBreakerCooldown:   *sinkBreakerCooldown,
		SinkTransport:         sinkRT,
	})
	// The handler owns the continuous-audit scheduler and the buffered
	// decision log; closing it after the drain flushes pending decisions
	// so a graceful restart replays the full log. Runs before the
	// store's own deferred Close (LIFO).
	defer func() {
		if c, ok := hnd.(io.Closer); ok {
			if err := c.Close(); err != nil {
				log.Printf("shutdown: %v", err)
			}
		}
	}()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           hnd,
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	errCh := make(chan error, 1)
	go func() {
		log.Printf("roledietd listening on %s (request-timeout=%s max-concurrent=%d)",
			*addr, *requestTimeout, *maxConcurrent)
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("serve: %w", err)
	case sig := <-sigCh:
		ready.Store(false) // /healthz now reports draining
		log.Printf("received %v, draining for up to %s", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// The drain grace expired with requests still running.
			// Cancel their contexts so the engine stops burning CPU,
			// then force-close the connections.
			log.Printf("drain timed out: cancelling in-flight analyses")
			cancelBase()
			if cerr := srv.Close(); cerr != nil {
				return fmt.Errorf("close after drain timeout: %w", cerr)
			}
		}
		<-errCh // wait for ListenAndServe to return
		return nil
	}
}
