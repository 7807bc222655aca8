// Package server exposes the detection framework as a JSON-over-HTTP
// service, the deployment shape an organisation would actually run the
// periodic audit through: an IAM export is POSTed, the inefficiency
// report (or merge plan, or review suggestions) comes back — either
// synchronously, or through the async jobs API for organisation-scale
// matrices whose hard classes take minutes.
//
// # Endpoints
//
//	GET    /healthz                 liveness probe (JSON: node id, state, boot, version)
//	GET    /metrics                 Prometheus text exposition (per-route latency/counts,
//	                                schedule fires, alert trips, sink deliveries, decisions)
//	POST   /v1/analyze              dataset -> inefficiency report
//	POST   /v1/consolidate          dataset -> {plan, consolidated dataset}
//	POST   /v1/suggest              dataset -> similar-merge suggestions
//	POST   /v1/query                dataset -> access-review answers
//	POST   /v1/diff                 {before, after} -> structural + audit diff
//	POST   /v1/optimize             dataset -> {plan, optimized dataset}; ?mode=async -> 202 + job
//	GET    /v1/optimize/{digest}/plan  paginated plan actions for a registered dataset
//	POST   /v1/jobs                 submit async analyze/consolidate/suggest/optimize -> 202 + job
//	GET    /v1/jobs                 list live jobs (snapshots, oldest first)
//	GET    /v1/jobs/{id}            job status + {stage, fraction} progress
//	GET    /v1/jobs/{id}/result     finished job's result (same shape as the sync endpoint)
//	DELETE /v1/jobs/{id}            cancel a queued or running job
//	POST   /v1/datasets             register a dataset -> content digest (201/200)
//	GET    /v1/datasets             list registered datasets
//	GET    /v1/datasets/{digest}    canonical dataset snapshot
//	DELETE /v1/datasets/{digest}    remove a dataset from registry and disk (local node only)
//	GET    /v1/stats                store cache/registry counters + live job and session counts
//	GET    /v1/datasets/{digest}/raw   canonical bytes, strictly local (internal peer transfer)
//	GET    /v1/fleet/stats          scatter-gathered fleet view; ?scope=local for one node
//	POST   /v1/sessions             open a live mutation session over a base dataset_ref
//	GET    /v1/sessions             list live sessions
//	GET    /v1/sessions/{id}        session snapshot (events applied, dataset stats)
//	DELETE /v1/sessions/{id}        close a session
//	POST   /v1/sessions/{id}/events apply a JSONL replay event batch -> applied count
//	GET    /v1/sessions/{id}/audit  O(answer) duplicate-group audit; ?mode=async runs it as a job
//	POST   /v1/drift                {before_ref, after_ref} -> duplicate groups gained/lost + event count
//	POST   /v1/schedules            create a continuous-audit schedule -> 201 + Location
//	GET    /v1/schedules            list schedules with run/failure counters
//	GET    /v1/schedules/{id}       one schedule
//	DELETE /v1/schedules/{id}       remove a schedule (idempotent: always 204)
//	POST   /v1/alerts               create an alert rule (spike|drift|recall) -> 201 + Location
//	GET    /v1/alerts               list alert rules with trip counters
//	GET    /v1/alerts/{id}          one alert rule
//	DELETE /v1/alerts/{id}          remove an alert rule (idempotent: always 204)
//	POST   /v1/sinks                create a webhook sink -> 201 + Location
//	GET    /v1/sinks                list sinks with delivery and breaker state
//	GET    /v1/sinks/{id}           one sink
//	DELETE /v1/sinks/{id}           remove a sink (idempotent: always 204)
//	GET    /v1/decisions            decision-log window, newest-capable cursor pagination
//
// # Continuous audit
//
// The /v1/schedules, /v1/alerts, /v1/sinks, and /v1/decisions resources
// form the continuous-audit subsystem (see internal/continuous).
// Schedules fire analyze or drift runs on the shared async worker pool
// at a fixed interval; alert rules evaluate each run's outcome against
// the previous one (findings spike, duplicate-group drift, recall
// regression); tripped alerts are delivered to every webhook sink
// through per-sink retry/backoff and a circuit breaker; and every
// analysis decision — API-triggered, job-triggered, or scheduled — is
// appended to a buffered JSONL decision log that survives restarts and
// is readable back through GET /v1/decisions. These resources follow
// the v1 contract: creation answers 201 with a Location header, a body
// referencing an unknown dataset or session answers 422
// unknown_reference, and DELETE is idempotent (204 whether or not the
// id existed).
//
// # Pagination
//
// Every list endpoint (datasets, sessions, jobs, schedules, alerts,
// sinks, decisions) answers the uniform page envelope
//
//	{"items": [...], "next_page_token": "<opaque>"}
//
// and accepts ?page_size= (default 100, max 1000) and ?page_token=
// (the previous page's next_page_token). next_page_token is omitted on
// the final page. A malformed or foreign token answers 400
// invalid_page_token; tokens are opaque and only valid for the
// endpoint that issued them. /v1/decisions pages by log cursor, so a
// page boundary is stable even while new decisions are appended.
//
// In a fleet deployment (Options.Fleet set), POST /v1/datasets routes
// the upload to the digest's rendezvous owner and replicates it, and
// any dataset_ref that is not held locally is fetched from a fleet
// holder, verified, and cached before the request proceeds — see
// internal/fleet and the fleet endpoints above. Without a fleet every
// endpoint is strictly local.
//
// # Request contract
//
// Every dataset-consuming POST accepts two body shapes:
//
//   - A bare dataset export (back-compat): the body is the dataset JSON
//     and analysis options come from query parameters — method
//     (rolediet|dbscan|hnsw|dbscan-float64), threshold (int >= 0),
//     workers (int >= 0; >= 2 fans grouping out over that many
//     goroutines). /v1/query takes user and/or permission selectors;
//     /v1/diff accepts method/threshold the same way.
//
//   - A v1 envelope: {"dataset": {...}, "options": {...}} where
//     "options" follows the core.Options wire schema (one schema shared
//     with the jobs API and the CLI). When the envelope carries
//     "options" it wins over the equivalent query parameters. /v1/jobs
//     additionally requires "kind":
//     "analyze"|"consolidate"|"suggest"|"optimize". /v1/diff keeps its
//     {"before", "after"} body and gains an optional "options" member.
//     /v1/optimize reads its planner knobs from an extra "optimize"
//     member (mine, maxAddedEdges, maxCandidates, maxRounds, workers);
//     analysis options always come from the shared "options" member.
//
// Instead of an inline "dataset", the envelope may carry
// {"dataset_ref": "<digest>"} naming a dataset previously registered
// via POST /v1/datasets (64 hex characters, optionally prefixed
// "sha256:"). /v1/diff likewise accepts "before_ref"/"after_ref" in
// place of the inline snapshots, so two stored snapshots can be
// compared without re-shipping either. An unknown or deleted reference
// answers 404 not_found; supplying both the inline field and its ref is
// a 400.
//
// A body carrying any envelope key ("dataset", "dataset_ref",
// "options", "optimize", "kind") is an envelope and must carry exactly
// one of a non-null "dataset" and a "dataset_ref"; any other body is a
// bare export. Every dataset, inline or uploaded, goes through the one
// decoder, rbac.ReadJSON: exact top-level keys, and a repeated key,
// trailing data or a null dataset body is a 400.
//
// Request bodies on every POST endpoint may be compressed with
// Content-Encoding: gzip; the decompressed size is bounded by the same
// limit as plain bodies, and any other Content-Encoding is rejected
// with 415. Every body past its limit (MaxBodyBytes, or MaxUploadBytes
// for uploads) answers 400 payload_too_large.
//
// Sync and async requests share one decode, validation, and dispatch
// path, so a job's result is byte-for-byte the corresponding sync
// endpoint's response (modulo timing fields).
//
// # Result cache
//
// Analyze, consolidate, suggest, optimize, and diff responses are cached in the
// store under (dataset digest, options fingerprint, kind): a repeated
// identical request — whether by reference or with the same inline
// content — is served from cache byte-for-byte without re-running the
// engine, and N concurrent identical requests run the engine once
// (single-flight). Sync responses carry an X-Cache: hit|miss header;
// GET /v1/stats exposes the hit/miss/eviction/single-flight counters.
// Cached entries expire after the store TTL and are bounded by its
// byte-budget LRU; errors are never cached.
//
// # Async jobs
//
// POST /v1/jobs enqueues work on a bounded worker pool instead of
// pinning the HTTP handler: the response is 202 with the job snapshot
// and a Location header. Poll GET /v1/jobs/{id} for status — progress
// is {stage, fraction} with fraction monotonically non-decreasing and
// reaching 1 on completion, fed by the engine at stage boundaries and
// from inside the hard-class grouping loops. GET /v1/jobs/{id}/result
// returns the finished result, 409 while the job is still queued or
// running, and the mapped engine error for failed/canceled jobs.
// DELETE cancels via the job's context; the engine's strided
// cancellation polling frees the worker within a bounded amount of
// work. Finished jobs (results and errors alike) expire after the
// configured TTL, after which the id answers 404. A full queue sheds
// the submission with 429 + Retry-After.
//
// # Resilience and the error contract
//
// The handler is wrapped in a resilience stack so one bad request can
// neither take the daemon down nor pin a core forever:
//
//   - Every synchronous analysis runs under the request's context;
//     async jobs run under the manager's base context. Cancellation is
//     observed inside the engine's hot loops.
//   - Options.RequestTimeout bounds each request end to end; exceeding
//     it returns 504 with a JSON error body. (Job execution is bounded
//     by cancellation and the worker pool, not by this timeout.)
//   - Options.MaxConcurrent caps in-flight /v1/* requests; excess load
//     is shed with 429 and a Retry-After header instead of queueing.
//   - Handler panics are recovered: the stack is logged, the request
//     gets a 500 JSON error, and the server keeps serving.
//   - /healthz bypasses the limiter and the timeout, so liveness
//     probes stay green while the service is saturated or draining.
//
// Every error response is the JSON envelope
//
//	{"error": "<human-readable message>", "code": "<machine code>"}
//
// with a stable, machine-readable code per status:
//
//	400 bad_request    malformed body, unknown method, negative threshold,
//	                   inconsistent dataset (Validate()d before analysis)
//	400 invalid_page_token  unparseable or foreign ?page_token on a list
//	                   endpoint
//	400 payload_too_large  request body past its byte cap, or an event
//	                   log exceeding the line/event caps; nothing partial
//	                   is admitted
//	404 not_found      unknown or expired job id; unknown dataset digest
//	409 conflict       job result not ready yet, or cancel of a finished job
//	415 unsupported_media_type  Content-Encoding other than gzip/identity
//	422 unprocessable  well-formed input the engine rejects
//	422 unknown_reference  a schedule/alert/sink body names a dataset,
//	                   session, or rule target that does not exist
//	429 shed           load shed (MaxConcurrent) or full job queue
//	500 internal       recovered panic
//	503 canceled       analysis canceled by disconnect, drain, or DELETE
//	503 peer_unavailable  a referenced dataset's fleet holders are all
//	                   unreachable; carries Retry-After (fleet mode only)
//	504 timeout        request exceeded RequestTimeout
package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/consolidate"
	"repro/internal/continuous"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/optimize"
	"repro/internal/rbac"
	"repro/internal/session"
	"repro/internal/store"
)

// healthPath and metricsPath are exempt from load shedding and
// timeouts: probes and scrapes must keep answering while the service
// is saturated or draining.
const (
	healthPath  = "/healthz"
	metricsPath = "/metrics"
)

// Options configures the handler.
type Options struct {
	// MaxBodyBytes caps request bodies (decompressed when gzipped);
	// past it a request fails with 400 payload_too_large. Defaults to
	// 256 MiB, enough for an organisation-scale dataset export.
	MaxBodyBytes int64
	// MaxUploadBytes caps POST /v1/datasets bodies specifically
	// (decompressed when gzipped). The ingest path decodes the body
	// incrementally and enforces this limit as it reads, so an
	// oversized upload fails with 400 payload_too_large after at most
	// this many bytes — it is never buffered whole. Defaults to
	// MaxBodyBytes.
	MaxUploadBytes int64
	// SessionTTL expires live mutation sessions idle that long;
	// defaults to 30 minutes.
	SessionTTL time.Duration
	// MaxSessions caps live mutation sessions per node; defaults to 128.
	MaxSessions int
	// MaxLogEvents caps one POST /v1/sessions/{id}/events batch;
	// defaults to replay.DefaultMaxEvents. Lines are always capped at
	// replay.DefaultMaxLineBytes.
	MaxLogEvents int
	// RequestTimeout bounds each request's total handling time,
	// synchronous analysis included; exceeding it returns 504. Zero
	// disables the per-request deadline (the engine still honours
	// client disconnects). Async job execution is not subject to it.
	RequestTimeout time.Duration
	// MaxConcurrent caps concurrently handled /v1/* requests; excess
	// requests receive 429 + Retry-After. Zero means unlimited.
	MaxConcurrent int
	// RetryAfter is the hint sent with 429 responses; defaults to 1s.
	RetryAfter time.Duration
	// Logf receives panic reports and operational messages; defaults
	// to log.Printf.
	Logf func(format string, args ...any)
	// JobWorkers is the async worker-pool size; defaults to GOMAXPROCS.
	JobWorkers int
	// JobQueueDepth bounds queued (not yet running) jobs; submissions
	// beyond it are shed with 429. Defaults to 64.
	JobQueueDepth int
	// JobResultTTL is how long finished job results stay fetchable;
	// defaults to 15 minutes.
	JobResultTTL time.Duration
	// BaseContext is the root context for async job execution;
	// cancelling it (daemon drain) cancels every queued and running
	// job. Defaults to context.Background().
	BaseContext context.Context
	// DefaultWorkers is applied to requests that do not set workers
	// themselves (query parameter or options body). 0 keeps the
	// engine's serial default; >= 2 makes parallel grouping the
	// daemon-wide default while individual requests can still pin
	// workers=1 for a serial run.
	DefaultWorkers int
	// Store is the dataset registry and analysis result cache serving
	// /v1/datasets, dataset_ref resolution, and response caching. When
	// nil, NewHandler builds a memory-only store with default limits;
	// the daemon passes a configured (and possibly persistent) one.
	Store *store.Store
	// Fleet is the peer layer for a sharded deployment: uploads are
	// forwarded to the digest's rendezvous owner (and replicated),
	// dataset_ref misses are fetched from a live holder, and
	// /v1/fleet/stats scatter-gathers the membership. Nil (or a
	// single-peer fleet) keeps every endpoint strictly local.
	Fleet *fleet.Fleet
	// NodeID names this node in /healthz and fleet stats; defaults to
	// a per-process identifier.
	NodeID string
	// Readiness, when set, feeds the /healthz readiness state: true is
	// "ready", false is "draining" (alive, finishing in-flight work,
	// not taking new fleet work). The bare-200 liveness contract is
	// unchanged either way.
	Readiness func() bool
	// DecisionLogPath, when set, opens the append-only JSONL decision
	// log there (the daemon derives it from -store-dir). Every analysis
	// decision — api, job, or scheduled — is recorded with its dataset
	// digest and options fingerprint and served by GET /v1/decisions.
	// Empty disables persistence and the decisions endpoint serves only
	// the in-memory window of this process.
	DecisionLogPath string
	// DecisionBuffer and DecisionFlushInterval tune the decision log's
	// buffered flushing; zero keeps the continuous package defaults.
	DecisionBuffer        int
	DecisionFlushInterval time.Duration
	// ScheduleMinInterval floors continuous-audit schedule intervals;
	// zero keeps the continuous package default (100ms).
	ScheduleMinInterval time.Duration
	// Sink delivery knobs for continuous-audit webhook sinks; zero
	// values keep the continuous package defaults.
	SinkAttempts         int
	SinkTimeout          time.Duration
	SinkBreakerThreshold int
	SinkBreakerCooldown  time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 256 << 20
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = o.MaxBodyBytes
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// handler carries the configured routes.
type handler struct {
	opts     Options
	mux      *http.ServeMux
	sem      chan struct{} // nil when MaxConcurrent == 0
	inner    http.Handler  // mux wrapped in the middleware stack
	jobs     *jobs.Manager
	store    *store.Store
	fleet    *fleet.Fleet // nil in single-node deployments
	sessions *session.Manager
	cont     *continuous.Manager // continuous-audit subsystem
	declog   *continuous.Log     // nil without a decision log path
	nodeID   string
	boot     string // per-process instance id; restarts change it
	version  string

	// routes lists every registered "METHOD /pattern" — the source of
	// truth the OpenAPI drift check compares the spec against.
	routes []string

	// Prometheus-style exposition served by GET /metrics.
	metrics  *metrics.Registry
	httpDur  *metrics.HistogramVec
	httpReqs *metrics.CounterVec
	optRuns  *metrics.CounterVec
	optDur   *metrics.HistogramVec
}

var _ http.Handler = (*handler)(nil)
var _ io.Closer = (*handler)(nil)

// Close stops the continuous-audit scheduler, waits out in-flight
// scheduled runs, and flushes the buffered decision log to disk. The
// HTTP server must be drained first so no request handler is racing an
// append. Without this, a graceful shutdown silently loses every
// decision buffered since the last timer flush.
func (h *handler) Close() error {
	if h.cont != nil {
		h.cont.Close()
	}
	if h.declog != nil {
		return h.declog.Close()
	}
	return nil
}

// NewHandler builds the service's http.Handler, with the resilience
// middleware (recovery, load shedding, request timeout) applied and
// the async job manager started.
func NewHandler(opts Options) http.Handler {
	h := &handler{opts: opts.withDefaults(), mux: http.NewServeMux()}
	if h.opts.MaxConcurrent > 0 {
		h.sem = make(chan struct{}, h.opts.MaxConcurrent)
	}
	h.jobs = jobs.NewManager(jobs.Options{
		Workers:     h.opts.JobWorkers,
		QueueDepth:  h.opts.JobQueueDepth,
		ResultTTL:   h.opts.JobResultTTL,
		BaseContext: h.opts.BaseContext,
	})
	h.store = h.opts.Store
	if h.store == nil {
		// A memory-only store (no Dir) cannot fail to construct.
		h.store, _ = store.New(store.Options{
			BaseContext: h.opts.BaseContext,
			Logf:        h.opts.Logf,
		})
	}
	h.fleet = h.opts.Fleet
	h.sessions = session.NewManager(session.Options{
		TTL:         h.opts.SessionTTL,
		MaxSessions: h.opts.MaxSessions,
	})
	h.boot = bootID()
	h.version = buildVersion()
	h.nodeID = h.opts.NodeID
	if h.nodeID == "" {
		h.nodeID = "node-" + h.boot
	}
	h.initMetrics()
	h.initContinuous()
	h.handle("GET "+healthPath, h.health)
	h.handle("GET "+metricsPath, h.metricsReport)
	h.handle("POST /v1/analyze", h.analyze)
	h.handle("POST /v1/consolidate", h.consolidate)
	h.handle("POST /v1/suggest", h.suggest)
	h.registerOptimize()
	h.registerExtra()
	h.registerJobs()
	h.registerDatasets()
	h.registerFleet()
	h.registerSessions()
	h.registerContinuous()
	h.inner = h.withRecovery(h.withLoadShedding(h.withTimeout(h.mux)))
	return h
}

// handle registers one route on the mux, records its pattern in the
// route registry (the OpenAPI drift check's source of truth), and
// wraps the handler with per-endpoint metrics: a request counter
// labelled by route and status class, and a latency histogram
// labelled by route. Labels come from the static pattern — never from
// request data — so cardinality is bounded by the route table.
func (h *handler) handle(pattern string, fn http.HandlerFunc) {
	h.routes = append(h.routes, pattern)
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &codeRecorder{ResponseWriter: w, code: http.StatusOK}
		fn(rec, r)
		h.httpDur.With(pattern).Observe(time.Since(start).Seconds())
		h.httpReqs.With(pattern, strconv.Itoa(rec.code)).Inc()
	})
}

// Routes returns every registered "METHOD /pattern". The concrete
// handler type is unexported; callers reach this through a type
// assertion on the NewHandler result.
func (h *handler) Routes() []string {
	return append([]string(nil), h.routes...)
}

// codeRecorder captures the response status for the request counter.
type codeRecorder struct {
	http.ResponseWriter
	code int
}

func (c *codeRecorder) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

// initMetrics builds the exposition registry and the per-endpoint
// instruments. Subsystem gauges that need the continuous manager are
// added by initContinuous.
func (h *handler) initMetrics() {
	h.metrics = metrics.NewRegistry()
	h.httpReqs = h.metrics.Counter("rolediet_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	h.httpDur = h.metrics.Histogram("rolediet_http_request_duration_seconds",
		"HTTP request latency in seconds, by route pattern.", nil, "route")
	h.optRuns = h.metrics.Counter("rolediet_optimize_runs_total",
		"Optimize runs by outcome (ok|error) and cache disposition (hit|miss).",
		"outcome", "cache")
	h.optDur = h.metrics.Histogram("rolediet_optimize_duration_seconds",
		"End-to-end /v1/optimize run latency in seconds, cache hits included.", nil)
	h.metrics.GaugeFunc("rolediet_jobs_live",
		"Jobs currently held by the async manager in any state.",
		func() float64 { return float64(h.jobs.Len()) })
	h.metrics.GaugeFunc("rolediet_sessions_live",
		"Open mutation sessions on this node.",
		func() float64 { return float64(h.sessions.Len()) })
	h.metrics.GaugeFunc("rolediet_store_datasets",
		"Datasets registered in the content-addressed store.",
		func() float64 { return float64(h.store.Stats().Datasets) })
}

// metricsReport serves the Prometheus text exposition.
func (h *handler) metricsReport(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	h.metrics.WriteText(w)
}

// ServeHTTP implements http.Handler.
func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.inner.ServeHTTP(w, r)
}

// Stable machine-readable error codes; see the package comment for the
// status -> code table.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeConflict         = "conflict"
	CodeUnsupportedMedia = "unsupported_media_type"
	CodeUnprocessable    = "unprocessable"
	CodeShed             = "shed"
	CodeInternal         = "internal"
	CodeCanceled         = "canceled"
	CodeTimeout          = "timeout"
	// CodePayloadTooLarge is a 400 variant for bodies that exceed a
	// configured cap — an oversized dataset upload (MaxUploadBytes) or
	// an event-log bomb (line/event limits). Distinct from bad_request
	// so clients can tell "shrink your payload" from "fix your JSON".
	CodePayloadTooLarge = "payload_too_large"
	// CodePeerUnavailable is a 503 variant distinct from canceled: a
	// fleet operation needed a peer (the owner or any replica holding
	// a dataset) and none could be reached. It always ships with a
	// Retry-After hint and is returned within the fleet client's
	// bounded retry window — never after an unbounded hang.
	CodePeerUnavailable = "peer_unavailable"
	// CodeInvalidPageToken is a 400 variant for a malformed or
	// out-of-range page_token on a list endpoint. Distinct from
	// bad_request so a paginating client can tell "restart the listing
	// from the beginning" apart from "your request body is broken".
	CodeInvalidPageToken = "invalid_page_token"
	// CodeUnknownReference is a 422 variant for a well-formed
	// continuous-audit resource that points at something that does not
	// exist — a dataset_ref that never registered, a session_id that
	// expired, a schedule_id or sink_id that was deleted. Distinct from
	// unprocessable (an engine rejection) and not_found (the URL names
	// a missing resource): here the URL is fine and the body is valid,
	// but a reference inside it dangles.
	CodeUnknownReference = "unknown_reference"
)

// codeFor maps a status the server emits to its stable error code.
func codeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusUnsupportedMediaType:
		return CodeUnsupportedMedia
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusTooManyRequests:
		return CodeShed
	case http.StatusServiceUnavailable:
		return CodeCanceled
	case http.StatusGatewayTimeout:
		return CodeTimeout
	default:
		return CodeInternal
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeErrorCode(w, status, codeFor(status), err)
}

// writeErrorCode writes the error envelope with an explicit code for
// statuses whose default mapping does not apply (peer_unavailable).
func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Code: code})
}

// writePeerUnavailable is the explicit degraded-mode answer: the
// request needed a peer none of whose holders were reachable. 503 with
// a Retry-After hint and the peer_unavailable code — the client should
// back off and retry once the fleet heals, rather than interpret the
// failure as a missing dataset.
func (h *handler) writePeerUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", retryAfterSeconds(h.opts.RetryAfter))
	writeErrorCode(w, http.StatusServiceUnavailable, CodePeerUnavailable, err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already sent; nothing recoverable remains.
		return
	}
}

// rawResult is a pre-encoded JSON response body — what the result
// cache stores and serves, so cached and freshly computed responses
// are byte-identical.
type rawResult []byte

// writeRawJSON serves a pre-encoded body with the same framing
// writeJSON's encoder produces (body + newline).
func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
	_, _ = w.Write([]byte{'\n'})
}

// health answers liveness probes. The response grew a JSON body (node
// id, build info, readiness) for the fleet prober and load balancers,
// but the pre-fleet contract — 200 means the process is alive — is
// unchanged: a draining node still answers 200 with state "draining",
// which is how a prober tells it apart from a dead one (no answer at
// all).
func (h *handler) health(w http.ResponseWriter, _ *http.Request) {
	state, ready := fleet.StateReady, true
	if h.opts.Readiness != nil && !h.opts.Readiness() {
		state, ready = fleet.StateDraining, false
	}
	writeJSON(w, fleet.Health{
		Status:  "ok",
		Node:    h.nodeID,
		State:   state,
		Ready:   ready,
		Version: h.version,
		Boot:    h.boot,
	})
}

// v1Request is the decoded form of a dataset-consuming request,
// produced identically for sync handlers and job submissions.
type v1Request struct {
	kind     string // only set by the envelope form; required for /v1/jobs
	dataset  *rbac.Dataset
	digest   string // content digest; set when resolved by ref, else lazily
	fp       string // options fingerprint; set by runKindCached
	opts     core.Options
	optKnobs *optimize.Knobs // planner knobs; only meaningful for kindOptimize
}

// v1Envelope is the unified request body: {"dataset" or "dataset_ref",
// "options"} plus "kind" for job submissions. A body carrying any of
// these keys is an envelope; any other body is a bare dataset export.
// Each member records whether its key appeared, null included, so the
// one json.Unmarshal that decodes the envelope also tells the two forms
// apart. Options decode through core.Options.UnmarshalJSON, the schema
// shared with the CLI; the dataset through rbac.Dataset.UnmarshalJSON,
// the decoder every ingest path shares.
type v1Envelope struct {
	Kind       member[string]        `json:"kind"`
	Dataset    member[*rbac.Dataset] `json:"dataset"`
	DatasetRef member[string]        `json:"dataset_ref"`
	Options    member[*core.Options] `json:"options"`
	// Optimize carries the /v1/optimize planner knobs. Its analysis
	// member is ignored: analysis options always come from "options",
	// so every kind shares one options schema and one fingerprint.
	Optimize member[*optimize.Knobs] `json:"optimize"`
}

// member is one envelope value plus whether its key appeared. A
// repeated key is an error, as it is in a dataset.
type member[T any] struct {
	v   T
	set bool
}

func (m *member[T]) UnmarshalJSON(b []byte) error {
	if m.set {
		return errors.New("an envelope key appears twice")
	}
	m.set = true
	// An escape-free string is its own text, so a by-ref body decodes
	// its digest without a nested json.Unmarshal.
	if s, ok := any(&m.v).(*string); ok && b[0] == '"' && bytes.IndexByte(b, '\\') < 0 && utf8.Valid(b) {
		*s = string(b[1 : len(b)-1])
		return nil
	}
	return json.Unmarshal(b, &m.v)
}

// queryOptions extracts method/threshold/workers parameters — the
// back-compat surface predating the body envelope.
func queryOptions(r *http.Request) (core.Options, error) {
	opts := core.Options{}
	q := r.URL.Query()
	if m := q.Get("method"); m != "" {
		method, err := core.ParseMethod(m)
		if err != nil {
			return opts, err
		}
		opts.Method = method
	}
	if t := q.Get("threshold"); t != "" {
		k, err := strconv.Atoi(t)
		if err != nil {
			return opts, fmt.Errorf("threshold: %w", err)
		}
		if k < 0 {
			return opts, fmt.Errorf("threshold %d < 0", k)
		}
		opts.SimilarThreshold = k
	}
	if ws := q.Get("workers"); ws != "" {
		n, err := strconv.Atoi(ws)
		if err != nil {
			return opts, fmt.Errorf("workers: %w", err)
		}
		if n < 0 {
			return opts, fmt.Errorf("workers %d < 0", n)
		}
		opts.Workers = n
	}
	return opts, nil
}

// bodyPresize caps how much readBody allocates up front on a client's
// word: past it, a declared Content-Length buys no memory until the
// bytes arrive.
const bodyPresize = 8 << 20

// readBody drains the request body through bodyStream, so it shares
// the upload path's size cap, decompression and error codes. The buffer
// starts at the declared Content-Length (within MaxBodyBytes and
// bodyPresize; 512 bytes at least, as io.ReadAll starts) plus the byte
// the read that meets EOF needs, and at least doubles when full.
// io.ReadAll alone grows a large body 1.25× at a time, allocating about
// five times it.
func (h *handler) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	rd, closeBody, ok := h.bodyStream(w, r, h.opts.MaxBodyBytes)
	if !ok {
		return nil, false
	}
	defer closeBody()
	body := make([]byte, 0, max(min(r.ContentLength, h.opts.MaxBodyBytes, bodyPresize)+1, 512))
	for {
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, true
		}
		if err != nil {
			writeBodyError(w, r, "read body", err)
			return nil, false
		}
		if len(body) == cap(body) {
			body = slices.Grow(body, cap(body))
		}
	}
}

// limitError reports a body exceeding a byte cap; the HTTP layer maps
// it to 400 payload_too_large. what names the stream that overflowed:
// "body" on the wire, "decompressed body" after gzip.
type limitError struct {
	what  string
	limit int64
}

func (e *limitError) Error() string {
	return fmt.Sprintf("%s exceeds the %d byte limit", e.what, e.limit)
}

// limitedReader hands out at most limit bytes and then fails with a
// typed *limitError instead of a silent EOF — the difference between
// "the upload ended" and "the upload was cut off", which the streaming
// decoder cannot otherwise tell apart. A body of exactly limit bytes
// still reads cleanly: the boundary is probed before erroring.
type limitedReader struct {
	r         io.Reader
	remaining int64
	what      string
	limit     int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if l.remaining <= 0 {
		// At the cap: only an immediate EOF distinguishes a
		// limit-sized body from an oversized one.
		var probe [1]byte
		n, err := l.r.Read(probe[:])
		if n > 0 {
			return 0, &limitError{l.what, l.limit}
		}
		if err != nil {
			return 0, err
		}
		return 0, nil
	}
	if int64(len(p)) > l.remaining {
		p = p[:l.remaining]
	}
	n, err := l.r.Read(p)
	l.remaining -= int64(n)
	return n, err
}

// bodyStream prepares the request body for reading: the returned
// reader enforces limit as it is consumed (both on the wire
// bytes and, for gzip, on the decompressed stream) and fails with a
// typed *limitError past it. The caller owns closing via the returned
// func. A false return means the error response was already written
// (415 for unknown encodings, 400 for a broken gzip header).
func (h *handler) bodyStream(w http.ResponseWriter, r *http.Request, limit int64) (io.Reader, func(), bool) {
	rd := io.Reader(&limitedReader{r: http.MaxBytesReader(w, r.Body, limit+1), remaining: limit, what: "body", limit: limit})
	closeFn := func() {}
	switch enc := strings.ToLower(strings.TrimSpace(r.Header.Get("Content-Encoding"))); enc {
	case "", "identity":
	case "gzip", "x-gzip":
		gz, err := gzip.NewReader(rd)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("gzip body: %w", err))
			return nil, nil, false
		}
		closeFn = func() { gz.Close() }
		rd = &limitedReader{r: gz, remaining: limit, what: "decompressed body", limit: limit}
	default:
		writeError(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("unsupported Content-Encoding %q (use gzip or no encoding)", enc))
		return nil, nil, false
	}
	return rd, closeFn, true
}

// writeBodyError maps a streaming-decode failure: limit breaches get
// 400 payload_too_large, anything else 400 bad_request.
func writeBodyError(w http.ResponseWriter, r *http.Request, context string, err error) {
	var le *limitError
	if errors.As(err, &le) {
		writePayloadTooLarge(w, r, fmt.Errorf("%s: %w", context, err))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("%s: %w", context, err))
}

// drainLimit bounds how much of an oversized body's unread rest the
// server discards before it answers payload_too_large.
const drainLimit = 4 << 20

// writePayloadTooLarge answers 400 payload_too_large after reading and
// discarding up to drainLimit more bytes of the body. When a client
// sent Connection: close, net/http drains nothing after the handler, so
// closing a socket with unread body bytes resets the connection and the
// client's write fails before it reads the reply. A rest longer than
// drainLimit is left unread: past that, the reset is the cheaper answer.
func writePayloadTooLarge(w http.ResponseWriter, r *http.Request, err error) {
	_, _ = io.CopyN(io.Discard, r.Body, drainLimit)
	writeErrorCode(w, http.StatusBadRequest, CodePayloadTooLarge, err)
}

// decodeRequest is the one decode path every dataset-consuming
// endpoint (sync and async) goes through. It merges query parameters
// with the optional body envelope (body wins), resolves "dataset_ref"
// against the registry (404 for unknown digests) or decodes the inline
// dataset, and reports decode failures as 400 with code bad_request.
// An envelope must carry exactly one of a non-null "dataset" and a
// non-empty "dataset_ref".
func (h *handler) decodeRequest(w http.ResponseWriter, r *http.Request) (*v1Request, bool) {
	opts, err := queryOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	body, ok := h.readBody(w, r)
	if !ok {
		return nil, false
	}
	var env v1Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse request: %w", err))
		return nil, false
	}

	req := &v1Request{opts: opts, kind: env.Kind.v, dataset: env.Dataset.v, optKnobs: env.Optimize.v}
	if env.Options.v != nil {
		req.opts = *env.Options.v
	}
	req.opts = h.withDefaultWorkers(req.opts)
	ref := env.DatasetRef.v
	switch {
	case !env.Kind.set && !env.Dataset.set && !env.DatasetRef.set && !env.Options.set && !env.Optimize.set:
		// No envelope key: the body is a bare dataset export.
		if req.dataset, err = rbac.ReadJSON(bytes.NewReader(body)); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parse dataset: %w", err))
			return nil, false
		}
	case req.dataset != nil && ref != "":
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("request carries both dataset and dataset_ref; send one"))
		return nil, false
	case ref != "":
		if req.dataset, req.digest, ok = h.resolveRef(w, r, ref); !ok {
			return nil, false
		}
	case req.dataset == nil:
		writeError(w, http.StatusBadRequest,
			errors.New(`request envelope needs a "dataset" or a "dataset_ref"`))
		return nil, false
	}
	return req, true
}

// withDefaultWorkers applies the daemon's DefaultWorkers to options
// that leave workers unset, so every endpoint runs, and fingerprints, a
// request without workers the same way.
func (h *handler) withDefaultWorkers(o core.Options) core.Options {
	if o.Workers == 0 {
		o.Workers = h.opts.DefaultWorkers
	}
	return o
}

// resolveRef maps a digest reference to a registered dataset, writing
// 400 for malformed digests and 404 for unknown ones. In a fleet, a
// local miss degrades to fetching the snapshot from a live holder
// (owner first, then replicas); when holders exist but none is
// reachable the answer is an explicit 503 peer_unavailable rather than
// a misleading 404 or a hang.
func (h *handler) resolveRef(w http.ResponseWriter, r *http.Request, ref string) (*rbac.Dataset, string, bool) {
	digest, err := store.ParseDigest(ref)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, "", false
	}
	ds, err := h.lookup(r.Context(), digest)
	switch {
	case err == nil:
		return ds, digest, true
	case errors.Is(err, errUnknownDataset):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, fleet.ErrPeerUnavailable):
		h.writePeerUnavailable(w, err)
	case r.Context().Err() != nil:
		writeEngineError(w, r.Context().Err())
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
	return nil, "", false
}

// errUnknownDataset marks a digest that neither this node nor, in a
// fleet, any peer holds.
var errUnknownDataset = errors.New("dataset not found")

// lookup returns the dataset a bare digest names: from the local store,
// or in a fleet fetched from its holders, verified and cached locally.
// Bytes too large for the local budget, otherwise inadmissible, or
// cached and immediately evicted (pathological budget) are parsed
// instead, so the caller is still served. Every dataset_ref, from a
// request or a schedule, resolves here.
func (h *handler) lookup(ctx context.Context, digest string) (*rbac.Dataset, error) {
	if ds, _, ok := h.store.GetDataset(digest); ok {
		return ds, nil
	}
	if !h.fleet.Enabled() {
		return nil, fmt.Errorf("%w: %s was never registered, deleted, or evicted", errUnknownDataset, digest)
	}
	raw, peer, err := h.fleet.FetchDataset(ctx, digest)
	switch {
	case err == nil:
	case errors.Is(err, fleet.ErrPeerUnavailable):
		return nil, fmt.Errorf("dataset %s is held by unreachable peers: %w", digest, err)
	case ctx.Err() != nil:
		return nil, ctx.Err()
	default: // fleet.ErrNotFound and anything equally definitive
		return nil, fmt.Errorf("%w: %s is on no fleet peer", errUnknownDataset, digest)
	}
	if _, err := h.store.PutCanonical(digest, raw); err != nil {
		h.opts.Logf("fleet: dataset %s fetched from %s not cached locally: %v", digest, peer, err)
	} else if ds, _, ok := h.store.GetDataset(digest); ok {
		return ds, nil
	}
	return rbac.ReadJSON(bytes.NewReader(raw))
}

// The job kinds — exactly the sync endpoints that run the engine.
const (
	kindAnalyze     = "analyze"
	kindConsolidate = "consolidate"
	kindSuggest     = "suggest"
	kindOptimize    = "optimize"
)

// consolidateResponse is the /v1/consolidate (and consolidate-job)
// result.
type consolidateResponse struct {
	Plan         *consolidate.Plan `json:"plan"`
	RolesBefore  int               `json:"rolesBefore"`
	RolesAfter   int               `json:"rolesAfter"`
	Consolidated *rbac.Dataset     `json:"consolidated"`
}

// runKind is the single dispatch point for the engine-backed kinds:
// the sync handlers call it with the request context and no progress
// hook, job workers call it with the job's context and the job's
// progress recorder. Keeping one path guarantees sync and async agree
// on options, cancellation, and result shape.
func runKind(ctx context.Context, kind string, req *v1Request,
	progress func(stage string, fraction float64)) (any, error) {
	opts := req.opts
	opts.Progress = progress
	switch kind {
	case kindAnalyze:
		return core.AnalyzeContext(ctx, req.dataset, opts)
	case kindConsolidate:
		after, plan, err := consolidate.ConsolidateContext(ctx, req.dataset, opts)
		if err != nil {
			return nil, err
		}
		return consolidateResponse{
			Plan:         plan,
			RolesBefore:  req.dataset.NumRoles(),
			RolesAfter:   after.NumRoles(),
			Consolidated: after,
		}, nil
	case kindSuggest:
		rep, err := core.AnalyzeContext(ctx, req.dataset, opts)
		if err != nil {
			return nil, err
		}
		suggestions, err := consolidate.SuggestSimilar(req.dataset, rep)
		if err != nil {
			return nil, err
		}
		if suggestions == nil {
			suggestions = []consolidate.Suggestion{}
		}
		return suggestions, nil
	case kindOptimize:
		knobs := planKnobs(req)
		knobs.Analysis = opts
		return optimize.RunContext(ctx, req.dataset, knobs)
	default:
		return nil, fmt.Errorf("unknown kind %q (want analyze, consolidate, suggest, or optimize)", kind)
	}
}

// planKnobs materialises the request's optimize knobs: the envelope's
// "optimize" member when present, zero knobs otherwise, with the
// analysis field cleared in both cases — it is populated from the
// shared options at dispatch and fingerprinted there, never read from
// the envelope's optimize member.
func planKnobs(req *v1Request) optimize.Knobs {
	var k optimize.Knobs
	if req.optKnobs != nil {
		k = *req.optKnobs
	}
	k.Analysis = core.Options{}
	return k
}

// runKindCached wraps runKind with the store's result cache for the
// engine-backed kinds: the response body is cached under (dataset
// digest, options fingerprint, kind) and concurrent identical requests
// share one engine run. Cacheable results come back as rawResult so
// cached and computed responses are byte-identical; hit reports
// whether the engine was skipped.
func (h *handler) runKindCached(ctx context.Context, kind string, req *v1Request,
	progress func(stage string, fraction float64)) (any, bool, error) {
	switch kind {
	case kindAnalyze, kindConsolidate, kindSuggest, kindOptimize:
	default:
		out, err := runKind(ctx, kind, req, progress)
		return out, false, err
	}
	if req.digest == "" {
		// Inline upload: digest the canonical content so identical
		// re-posts hit the same cache line as requests by reference.
		digest, _, err := store.Digest(req.dataset)
		if err != nil {
			return nil, false, err
		}
		req.digest = digest
	}
	var extra []string
	if kind == kindOptimize {
		// The planner knobs change the result, so they join the cache
		// key. planKnobs zeroes the analysis member, which Fingerprint
		// already covers via req.opts — a request with an absent
		// "optimize" member and one carrying {} land on one cache line.
		kb, err := json.Marshal(planKnobs(req))
		if err != nil {
			return nil, false, err
		}
		extra = append(extra, "optimize:"+string(kb))
	}
	fp, err := store.Fingerprint(req.opts, extra...)
	if err != nil {
		return nil, false, err
	}
	req.fp = fp
	key := store.Key{Dataset: req.digest, Fingerprint: fp, Kind: kind}
	body, hit, err := h.store.Result(ctx, key, func(ctx context.Context) ([]byte, error) {
		out, err := runKind(ctx, kind, req, progress)
		if err != nil {
			return nil, err
		}
		return json.Marshal(out)
	})
	if err != nil {
		return nil, false, err
	}
	if hit && progress != nil {
		progress("cached", 1)
	}
	return rawResult(body), hit, nil
}

// runKindLogged wraps runKindCached with a decision-log append: every
// engine-backed decision — served from cache or computed — lands in the
// append-only log with its dataset digest and options fingerprint, so
// any historical answer is reproducible from the content-addressed
// registry. source is "api" for synchronous requests and "job" for
// async submissions; scheduled runs log through the continuous manager
// instead (their decisions carry tripped-alert ids too).
func (h *handler) runKindLogged(ctx context.Context, source, kind string, req *v1Request,
	progress func(stage string, fraction float64)) (any, bool, error) {
	started := time.Now()
	out, hit, err := h.runKindCached(ctx, kind, req, progress)
	if kind == kindOptimize {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		h.optRuns.With(outcome, cacheHeader(hit)).Inc()
		h.optDur.With().Observe(time.Since(started).Seconds())
	}
	if h.declog != nil {
		d := continuous.Decision{
			Source:        source,
			Kind:          kind,
			Dataset:       req.digest,
			Fingerprint:   req.fp,
			CacheHit:      hit,
			DurationNanos: time.Since(started).Nanoseconds(),
		}
		if err != nil {
			d.Error = err.Error()
		}
		h.declog.Append(d)
	}
	return out, hit, err
}

// runSync decodes, dispatches, and writes one synchronous request.
func (h *handler) runSync(kind string, w http.ResponseWriter, r *http.Request) {
	req, ok := h.decodeRequest(w, r)
	if !ok {
		return
	}
	out, hit, err := h.runKindLogged(r.Context(), "api", kind, req, nil)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	if raw, ok := out.(rawResult); ok {
		w.Header().Set("X-Cache", cacheHeader(hit))
		writeRawJSON(w, raw)
		return
	}
	writeJSON(w, out)
}

// cacheHeader renders the X-Cache response header value.
func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// analyze runs the five detectors over the posted dataset.
func (h *handler) analyze(w http.ResponseWriter, r *http.Request) {
	h.runSync(kindAnalyze, w, r)
}

// consolidate plans and applies the provably safe class-4 merges.
func (h *handler) consolidate(w http.ResponseWriter, r *http.Request) {
	h.runSync(kindConsolidate, w, r)
}

// suggest returns reviewable similar-merge suggestions.
func (h *handler) suggest(w http.ResponseWriter, r *http.Request) {
	h.runSync(kindSuggest, w, r)
}
