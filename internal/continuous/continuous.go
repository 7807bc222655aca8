// Package continuous is the continuous-audit subsystem: the daemon
// stops being a calculator you must remember to call and starts
// telling you when a registered snapshot regresses.
//
// Four resource kinds cooperate:
//
//   - Schedules fire analyses of a registered dataset (or the live
//     dataset of a mutation session) at a fixed interval, riding the
//     existing async jobs pool so scheduled work shares the same
//     worker budget, cancellation, and backpressure as user-submitted
//     jobs.
//   - Rules watch consecutive observations of those runs and trip on
//     thresholds: a findings spike vs the previous run, duplicate-group
//     drift between consecutive digests (the O(delta) /v1/drift
//     signal), or a recall regression of the configured approximate
//     method against the exact one.
//   - Sinks are webhook endpoints that receive tripped alerts through
//     the hardened retry/backoff/breaker client patterns of
//     internal/fleet (see sink.go).
//   - The decision Log records every analysis decision append-only as
//     JSONL with its dataset digest and options fingerprint (see
//     declog.go), so any historical decision is reproducible from the
//     content-addressed registry.
//
// The package talks to the engine exclusively through the Backend
// callbacks the HTTP layer provides, so scheduled runs share the
// server's result cache: a scheduled analysis of an unchanged digest
// is a cache hit, which is what makes tight intervals affordable.
package continuous

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/session"
)

// Sentinel errors; the HTTP layer maps them onto the v1 error codes.
var (
	// ErrInvalid marks a malformed resource (400 bad_request).
	ErrInvalid = errors.New("continuous: invalid")
	// ErrNotFound marks an unknown resource id (404 not_found).
	ErrNotFound = errors.New("continuous: not found")
	// ErrUnknownReference marks a well-formed resource pointing at a
	// dataset, session, schedule, or sink that does not exist
	// (422 unknown_reference).
	ErrUnknownReference = errors.New("continuous: unknown reference")
)

// Duration is a time.Duration that marshals as a Go duration string
// ("500ms") and unmarshals from either that or integer nanoseconds.
type Duration time.Duration

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "500ms" or 500000000.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("parse duration %q: %w", s, perr)
		}
		*d = Duration(v)
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("duration must be a Go duration string or integer nanoseconds, got %s", b)
	}
	*d = Duration(n)
	return nil
}

// Schedule is one recurring audit over a registered snapshot.
type Schedule struct {
	ID string `json:"id"`
	// DatasetRef is the registered digest the schedule audits.
	DatasetRef string `json:"dataset_ref"`
	// SessionID, when set, makes each fire snapshot the live dataset of
	// that mutation session (registering the snapshot content-addressed)
	// instead of analysing DatasetRef directly — the digest then moves
	// as the session mutates, which is what drift rules watch. The
	// schedule falls back to DatasetRef if the session expires.
	SessionID string `json:"session_id,omitempty"`
	// Interval is the fire period; floored at the manager's MinInterval.
	Interval Duration `json:"interval"`
	// Options are the analysis options; nil means server defaults.
	Options *core.Options `json:"options,omitempty"`
	// MeasureRecall additionally runs the exact method each fire and
	// records the approximate method's class-4 recall against it, so
	// recall rules have a signal.
	MeasureRecall bool `json:"measure_recall,omitempty"`
	// Paused stops firing without deleting the schedule's history.
	Paused    bool      `json:"paused,omitempty"`
	CreatedAt time.Time `json:"createdAt"`

	// Read-only run state.
	Fires     int          `json:"fires"`
	LastError string       `json:"last_error,omitempty"`
	LastRun   *Observation `json:"last_run,omitempty"`
	NextAt    time.Time    `json:"next_at,omitempty"`
}

// Meta is what the Backend reports about one engine call.
type Meta struct {
	// Fingerprint keys the result cache together with the digest.
	Fingerprint string
	// CacheHit reports whether the engine was skipped.
	CacheHit bool
}

// Backend is the engine surface the HTTP layer lends the subsystem.
// Every callback must be safe for concurrent use.
type Backend struct {
	// Resolve normalises a dataset_ref and ensures it is available
	// locally (fetch-through in a fleet), returning the bare digest.
	// CreateSchedule calls it once; fires analyse the stored digest.
	Resolve func(ctx context.Context, ref string) (string, error)
	// SessionExists reports whether a mutation session id is live.
	SessionExists func(id string) bool
	// Snapshot registers the current dataset of a live session
	// content-addressed and returns its digest.
	Snapshot func(ctx context.Context, sessionID string) (string, error)
	// Analyze runs (or serves from cache) a full analysis of a
	// registered digest.
	Analyze func(ctx context.Context, digest string, opts core.Options) (*core.Report, Meta, error)
	// Drift computes the O(delta) drift report between two registered
	// digests.
	Drift func(ctx context.Context, before, after string) (*session.DriftReport, Meta, error)
}

func (b Backend) validate() error {
	if b.Resolve == nil || b.SessionExists == nil || b.Snapshot == nil || b.Analyze == nil || b.Drift == nil {
		return fmt.Errorf("continuous: incomplete backend")
	}
	return nil
}

// Hooks observe subsystem events; all fields are optional. They feed
// the Prometheus counters without the package importing the metrics
// registry.
type Hooks struct {
	// ScheduleFire observes every started scheduled run.
	ScheduleFire func()
	// AlertTrip observes every rule trip, labelled by rule type.
	AlertTrip func(ruleType string)
	// SinkDelivery observes every finished delivery attempt chain.
	SinkDelivery func(ok bool)
}

// Config assembles a Manager.
type Config struct {
	Backend Backend
	// Jobs is the shared async pool scheduled runs execute on.
	Jobs *jobs.Manager
	// Log, when non-nil, receives a decision per scheduled analysis and
	// drift computation.
	Log *Log
	// Sink tunes alert delivery.
	Sink SinkConfig
	// MinInterval floors schedule intervals; defaults to 100ms.
	MinInterval time.Duration
	// Tick is the scheduler resolution; defaults to min(MinInterval, 100ms).
	Tick  time.Duration
	Hooks Hooks
	// Logf receives operational messages; defaults to discarding.
	Logf func(format string, args ...any)
	// BaseContext roots the scheduler and delivery workers; cancelling
	// it stops both. Defaults to context.Background().
	BaseContext context.Context
}

// Stats is the subsystem's counter snapshot for /v1/stats and the
// metrics gauges.
type Stats struct {
	Schedules int   `json:"schedules"`
	Rules     int   `json:"rules"`
	Sinks     int   `json:"sinks"`
	Fires     int64 `json:"fires"`
	Trips     int64 `json:"trips"`
	Delivered int64 `json:"delivered"`
	Failed    int64 `json:"failed"`
	Dropped   int64 `json:"dropped"`
	// Decisions carries the decision log's counters when a log is
	// attached.
	Decisions *LogStats `json:"decisions,omitempty"`
}

// schedState pairs a schedule with its runtime-only state.
type schedState struct {
	mu      sync.Mutex
	sched   Schedule
	running bool
	prev    *Observation
}

// Manager owns the resources and the scheduler loop.
type Manager struct {
	cfg       Config
	ctx       context.Context
	cancel    context.CancelFunc
	deliverer *deliverer
	wg        sync.WaitGroup

	mu        sync.Mutex
	schedules map[string]*schedState
	rules     map[string]*Rule
	sinks     map[string]*sinkState
	fires     int64
	trips     int64
	closed    bool
}

// NewManager validates the config and starts the scheduler and the
// delivery worker.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Backend.validate(); err != nil {
		return nil, err
	}
	if cfg.Jobs == nil {
		return nil, fmt.Errorf("continuous: jobs manager required")
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = 100 * time.Millisecond
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Millisecond
		if cfg.MinInterval < cfg.Tick {
			cfg.Tick = cfg.MinInterval
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	ctx, cancel := context.WithCancel(cfg.BaseContext)
	m := &Manager{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		schedules: make(map[string]*schedState),
		rules:     make(map[string]*Rule),
		sinks:     make(map[string]*sinkState),
	}
	m.deliverer = newDeliverer(ctx, cfg.Sink, cfg.Hooks, cfg.Logf)
	m.wg.Add(1)
	go m.loop()
	return m, nil
}

// Close stops the scheduler and delivery workers. In-flight scheduled
// jobs are cancelled through the jobs pool's own lifecycle.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
	m.deliverer.close()
}

// newID returns a 64-bit random hex id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("continuous: id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// CreateSchedule validates and registers a schedule. The dataset_ref
// must resolve (ErrUnknownReference otherwise) and is normalised to
// the bare digest; a session_id must name a live session. The first
// fire happens on the next scheduler tick.
func (m *Manager) CreateSchedule(ctx context.Context, s Schedule) (Schedule, error) {
	if s.DatasetRef == "" {
		return Schedule{}, fmt.Errorf("%w: dataset_ref required", ErrInvalid)
	}
	if time.Duration(s.Interval) <= 0 {
		return Schedule{}, fmt.Errorf("%w: interval required", ErrInvalid)
	}
	if time.Duration(s.Interval) < m.cfg.MinInterval {
		return Schedule{}, fmt.Errorf("%w: interval %s below the minimum %s",
			ErrInvalid, time.Duration(s.Interval), m.cfg.MinInterval)
	}
	digest, err := m.cfg.Backend.Resolve(ctx, s.DatasetRef)
	if err != nil {
		return Schedule{}, fmt.Errorf("%w: dataset_ref %s: %v", ErrUnknownReference, s.DatasetRef, err)
	}
	s.DatasetRef = digest
	if s.SessionID != "" && !m.cfg.Backend.SessionExists(s.SessionID) {
		return Schedule{}, fmt.Errorf("%w: session %s", ErrUnknownReference, s.SessionID)
	}
	s.ID = newID()
	s.CreatedAt = time.Now().UTC()
	s.Fires = 0
	s.LastError = ""
	s.LastRun = nil
	s.NextAt = s.CreatedAt
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Schedule{}, fmt.Errorf("continuous: manager closed")
	}
	m.schedules[s.ID] = &schedState{sched: s}
	return s, nil
}

// GetSchedule returns a schedule by id.
func (m *Manager) GetSchedule(id string) (Schedule, bool) {
	m.mu.Lock()
	st, ok := m.schedules[id]
	m.mu.Unlock()
	if !ok {
		return Schedule{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sched, true
}

// DeleteSchedule removes a schedule; an in-flight run finishes but its
// observation is discarded. Reports whether the id existed.
func (m *Manager) DeleteSchedule(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.schedules[id]
	delete(m.schedules, id)
	return ok
}

// ListSchedules returns all schedules ordered by creation time then id.
func (m *Manager) ListSchedules() []Schedule {
	m.mu.Lock()
	states := make([]*schedState, 0, len(m.schedules))
	for _, st := range m.schedules {
		states = append(states, st)
	}
	m.mu.Unlock()
	out := make([]Schedule, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		out = append(out, st.sched)
		st.mu.Unlock()
	}
	sortByCreation(out, func(s Schedule) (time.Time, string) { return s.CreatedAt, s.ID })
	return out
}

// CreateRule validates and registers an alert rule. A schedule_id or
// sink_ids naming unknown resources are ErrUnknownReference.
func (m *Manager) CreateRule(r Rule) (Rule, error) {
	if err := r.validate(); err != nil {
		return Rule{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.ScheduleID != "" {
		if _, ok := m.schedules[r.ScheduleID]; !ok {
			return Rule{}, fmt.Errorf("%w: schedule %s", ErrUnknownReference, r.ScheduleID)
		}
	}
	for _, id := range r.SinkIDs {
		if _, ok := m.sinks[id]; !ok {
			return Rule{}, fmt.Errorf("%w: sink %s", ErrUnknownReference, id)
		}
	}
	r.ID = newID()
	r.CreatedAt = time.Now().UTC()
	r.Trips = 0
	m.rules[r.ID] = &r
	return r, nil
}

// GetRule returns a rule by id.
func (m *Manager) GetRule(id string) (Rule, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.rules[id]
	if !ok {
		return Rule{}, false
	}
	return *r, true
}

// DeleteRule removes a rule, reporting whether the id existed.
func (m *Manager) DeleteRule(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.rules[id]
	delete(m.rules, id)
	return ok
}

// ListRules returns all rules ordered by creation time then id.
func (m *Manager) ListRules() []Rule {
	m.mu.Lock()
	out := make([]Rule, 0, len(m.rules))
	for _, r := range m.rules {
		out = append(out, *r)
	}
	m.mu.Unlock()
	sortByCreation(out, func(r Rule) (time.Time, string) { return r.CreatedAt, r.ID })
	return out
}

// CreateSink validates and registers a webhook sink.
func (m *Manager) CreateSink(s Sink) (Sink, error) {
	if err := s.validate(); err != nil {
		return Sink{}, err
	}
	s.ID = newID()
	s.CreatedAt = time.Now().UTC()
	s.Delivered, s.Failed, s.Dropped = 0, 0, 0
	cfg := m.cfg.Sink.withDefaults()
	st := &sinkState{
		sink:    s,
		breaker: newSinkBreaker(cfg),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sinks[s.ID] = st
	return st.view(), nil
}

// GetSink returns a sink by id, with live delivery counters and
// breaker state.
func (m *Manager) GetSink(id string) (Sink, bool) {
	m.mu.Lock()
	st, ok := m.sinks[id]
	m.mu.Unlock()
	if !ok {
		return Sink{}, false
	}
	return st.view(), true
}

// DeleteSink removes a sink, reporting whether the id existed. Rules
// routing to it simply stop reaching it.
func (m *Manager) DeleteSink(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.sinks[id]
	delete(m.sinks, id)
	return ok
}

// ListSinks returns all sinks ordered by creation time then id.
func (m *Manager) ListSinks() []Sink {
	m.mu.Lock()
	states := make([]*sinkState, 0, len(m.sinks))
	for _, st := range m.sinks {
		states = append(states, st)
	}
	m.mu.Unlock()
	out := make([]Sink, 0, len(states))
	for _, st := range states {
		out = append(out, st.view())
	}
	sortByCreation(out, func(s Sink) (time.Time, string) { return s.CreatedAt, s.ID })
	return out
}

// Stats snapshots the subsystem counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{
		Schedules: len(m.schedules),
		Rules:     len(m.rules),
		Sinks:     len(m.sinks),
		Fires:     m.fires,
		Trips:     m.trips,
	}
	sinks := make([]*sinkState, 0, len(m.sinks))
	for _, st := range m.sinks {
		sinks = append(sinks, st)
	}
	m.mu.Unlock()
	for _, st := range sinks {
		v := st.view()
		s.Delivered += int64(v.Delivered)
		s.Failed += int64(v.Failed)
		s.Dropped += int64(v.Dropped)
	}
	if m.cfg.Log != nil {
		ls := m.cfg.Log.Stats()
		s.Decisions = &ls
	}
	return s
}

// sortByCreation orders resources by (CreatedAt, ID).
func sortByCreation[T any](items []T, key func(T) (time.Time, string)) {
	sort.Slice(items, func(i, j int) bool {
		ti, idi := key(items[i])
		tj, idj := key(items[j])
		if !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return idi < idj
	})
}

// loop is the scheduler: every tick it fires due schedules onto the
// jobs pool. A schedule never overlaps itself — a run still in flight
// defers the next fire to the tick after it completes.
func (m *Manager) loop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case now := <-t.C:
			m.fireDue(now)
		}
	}
}

// fireDue submits a job per due schedule.
func (m *Manager) fireDue(now time.Time) {
	m.mu.Lock()
	due := make([]*schedState, 0)
	for _, st := range m.schedules {
		st.mu.Lock()
		if !st.sched.Paused && !st.running && !now.Before(st.sched.NextAt) {
			st.running = true
			due = append(due, st)
		}
		st.mu.Unlock()
	}
	m.mu.Unlock()
	for _, st := range due {
		st := st
		_, _, err := m.cfg.Jobs.Submit("schedule", func(ctx context.Context, progress func(string, float64)) (any, error) {
			defer m.finishRun(st)
			m.runOnce(ctx, st)
			return nil, nil
		})
		if err != nil {
			// Shed: the pool is saturated or closing. Push the fire out
			// one interval instead of spinning on every tick.
			st.mu.Lock()
			st.running = false
			st.sched.LastError = fmt.Sprintf("submit: %v", err)
			st.sched.NextAt = now.Add(time.Duration(st.sched.Interval))
			st.mu.Unlock()
			m.cfg.Logf("continuous: schedule %s fire shed: %v", st.sched.ID, err)
		}
	}
}

// finishRun re-arms the schedule after a run completes (or dies).
func (m *Manager) finishRun(st *schedState) {
	st.mu.Lock()
	st.running = false
	st.sched.NextAt = time.Now().Add(time.Duration(st.sched.Interval))
	st.mu.Unlock()
}

// runOnce executes one scheduled audit: pick the target digest
// (snapshotting the session when one is attached), analyse through the
// cached backend, optionally measure recall, compute drift against the
// previous run's digest, evaluate the rules, route trips to sinks, and
// log the decision.
func (m *Manager) runOnce(ctx context.Context, st *schedState) {
	st.mu.Lock()
	sched := st.sched
	prev := st.prev
	st.mu.Unlock()
	if m.cfg.Hooks.ScheduleFire != nil {
		m.cfg.Hooks.ScheduleFire()
	}
	m.mu.Lock()
	m.fires++
	m.mu.Unlock()

	started := time.Now()
	source := "schedule:" + sched.ID

	digest := m.resolveTarget(ctx, sched)
	var opts core.Options
	if sched.Options != nil {
		opts = *sched.Options
	}
	rep, meta, err := m.cfg.Backend.Analyze(ctx, digest, opts)
	if err != nil {
		m.recordFailure(st, sched, source, digest, started, err)
		return
	}
	obs := Observation{
		Run:           sched.Fires + 1,
		Time:          time.Now().UTC(),
		Digest:        digest,
		Fingerprint:   meta.Fingerprint,
		Findings:      rep.TotalReducibleRoles(),
		DupGroups:     len(rep.SameUserGroups) + len(rep.SamePermissionGroups),
		CacheHit:      meta.CacheHit,
		DurationNanos: time.Since(started).Nanoseconds(),
	}
	if sched.MeasureRecall {
		if recall, ok := m.measureRecall(ctx, digest, opts, rep); ok {
			obs.Recall = &recall
		}
	}
	if prev != nil && prev.Digest != digest {
		if ds, derr := m.driftStats(ctx, sched, source, prev.Digest, digest); derr == nil {
			obs.Drift = ds
		} else {
			m.cfg.Logf("continuous: schedule %s drift %s -> %s: %v", sched.ID, prev.Digest, digest, derr)
		}
	}

	tripped := m.evaluateRules(sched.ID, prev, obs)

	if m.cfg.Log != nil {
		m.cfg.Log.Append(Decision{
			Source:        source,
			Kind:          "analyze",
			Dataset:       digest,
			Fingerprint:   meta.Fingerprint,
			CacheHit:      meta.CacheHit,
			DurationNanos: obs.DurationNanos,
			Findings:      obs.Findings,
			Alerts:        tripped,
		})
	}

	st.mu.Lock()
	st.sched.Fires++
	st.sched.LastError = ""
	o := obs
	st.sched.LastRun = &o
	st.prev = &o
	st.mu.Unlock()
}

// resolveTarget picks the digest this fire audits. Without a live
// session that is the schedule's own dataset_ref, which CreateSchedule
// stored as a bare, resolved digest: Analyze looks it up, so resolving
// it again here would fetch a dataset this node cannot cache twice.
func (m *Manager) resolveTarget(ctx context.Context, sched Schedule) string {
	if sched.SessionID != "" {
		digest, err := m.cfg.Backend.Snapshot(ctx, sched.SessionID)
		if err == nil {
			return digest
		}
		// The session expired or was closed; keep the schedule alive on
		// its base snapshot rather than erroring every interval.
		m.cfg.Logf("continuous: schedule %s session %s unavailable (%v); falling back to dataset_ref",
			sched.ID, sched.SessionID, err)
	}
	return sched.DatasetRef
}

// recordFailure notes a failed fire on the schedule and the decision
// log.
func (m *Manager) recordFailure(st *schedState, sched Schedule, source, digest string, started time.Time, err error) {
	m.cfg.Logf("continuous: schedule %s run failed: %v", sched.ID, err)
	if m.cfg.Log != nil {
		m.cfg.Log.Append(Decision{
			Source:        source,
			Kind:          "analyze",
			Dataset:       digest,
			DurationNanos: time.Since(started).Nanoseconds(),
			Error:         err.Error(),
		})
	}
	st.mu.Lock()
	st.sched.Fires++
	st.sched.LastError = err.Error()
	st.mu.Unlock()
}

// driftStats runs the O(delta) drift audit between consecutive digests
// and logs it as its own decision.
func (m *Manager) driftStats(ctx context.Context, sched Schedule, source, before, after string) (*DriftStats, error) {
	rep, meta, err := m.cfg.Backend.Drift(ctx, before, after)
	if err != nil {
		return nil, err
	}
	ds := &DriftStats{
		Events: rep.Events,
		Gained: len(rep.SameUser.Gained) + len(rep.SamePermission.Gained),
		Lost:   len(rep.SameUser.Lost) + len(rep.SamePermission.Lost),
	}
	if m.cfg.Log != nil {
		m.cfg.Log.Append(Decision{
			Source:      source,
			Kind:        "drift",
			Dataset:     before + "+" + after,
			Fingerprint: meta.Fingerprint,
			CacheHit:    meta.CacheHit,
			Findings:    ds.Gained + ds.Lost,
		})
	}
	return ds, nil
}

// evaluateRules trips matching rules and routes alerts to sinks,
// returning the tripped rule ids for the decision record.
func (m *Manager) evaluateRules(scheduleID string, prev *Observation, obs Observation) []string {
	m.mu.Lock()
	rules := make([]Rule, 0, len(m.rules))
	for _, r := range m.rules {
		rules = append(rules, *r)
	}
	m.mu.Unlock()
	sortByCreation(rules, func(r Rule) (time.Time, string) { return r.CreatedAt, r.ID })

	var tripped []string
	for _, r := range rules {
		alert, ok := Evaluate(r, scheduleID, prev, obs)
		if !ok {
			continue
		}
		tripped = append(tripped, r.ID)
		m.mu.Lock()
		if live, exists := m.rules[r.ID]; exists {
			live.Trips++
		}
		m.trips++
		sinks := m.routeLocked(r)
		m.mu.Unlock()
		if m.cfg.Hooks.AlertTrip != nil {
			m.cfg.Hooks.AlertTrip(string(r.Type))
		}
		for _, st := range sinks {
			m.deliverer.enqueue(st, alert)
		}
	}
	return tripped
}

// routeLocked resolves a rule's target sinks; callers hold m.mu.
func (m *Manager) routeLocked(r Rule) []*sinkState {
	if len(r.SinkIDs) == 0 {
		out := make([]*sinkState, 0, len(m.sinks))
		ids := make([]string, 0, len(m.sinks))
		for id := range m.sinks {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			out = append(out, m.sinks[id])
		}
		return out
	}
	out := make([]*sinkState, 0, len(r.SinkIDs))
	for _, id := range r.SinkIDs {
		if st, ok := m.sinks[id]; ok {
			out = append(out, st)
		}
	}
	return out
}

// measureRecall compares the approximate method's class-4 groups
// against an exact run over the same digest (a separate cache line, so
// repeated fires of an unchanged snapshot pay for it once). Recall is
// the fraction of exact duplicate pairs the approximate method
// recovered; 1 when the schedule already runs the exact method.
func (m *Manager) measureRecall(ctx context.Context, digest string, opts core.Options, approx *core.Report) (float64, bool) {
	if opts.Method == 0 || opts.Method == core.MethodRoleDiet {
		return 1, true
	}
	exactOpts := opts
	exactOpts.Method = core.MethodRoleDiet
	exact, _, err := m.cfg.Backend.Analyze(ctx, digest, exactOpts)
	if err != nil {
		m.cfg.Logf("continuous: recall measurement for %s: %v", digest, err)
		return 0, false
	}
	return groupRecall(exact, approx), true
}

// groupRecall is the class-4 pair recall of approx against exact.
func groupRecall(exact, approx *core.Report) float64 {
	exactPairs := pairSet(exact.SameUserGroups, "u")
	for k := range pairSet(exact.SamePermissionGroups, "p") {
		exactPairs[k] = true
	}
	if len(exactPairs) == 0 {
		return 1
	}
	approxPairs := pairSet(approx.SameUserGroups, "u")
	for k := range pairSet(approx.SamePermissionGroups, "p") {
		approxPairs[k] = true
	}
	hit := 0
	for k := range exactPairs {
		if approxPairs[k] {
			hit++
		}
	}
	return float64(hit) / float64(len(exactPairs))
}

// pairSet expands groups into their member pairs, keyed side-tagged.
func pairSet(groups []core.RoleGroup, side string) map[string]bool {
	pairs := make(map[string]bool)
	for _, g := range groups {
		ids := make([]string, len(g.Roles))
		for i, r := range g.Roles {
			ids[i] = string(r)
		}
		sort.Strings(ids)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				pairs[side+"\x00"+ids[i]+"\x00"+ids[j]] = true
			}
		}
	}
	return pairs
}
