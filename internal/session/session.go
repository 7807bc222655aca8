// Package session maintains live mutation sessions: a dataset snapshot
// plus, per assignment side, a Zobrist hash bucket index over its
// roles, kept current as replay events apply, so a duplicate-group
// audit reads candidate groups off the buckets instead of re-running
// the detection engine over the corpus.
//
// The dataset is the only copy of the graph. The buckets hold a hash
// per role id; each user or permission contributes a word derived from
// its id string, so index shifts inside rbac never move a hash. An
// audit splits a multi-role bucket by the paper's exact-group test run
// on the dataset's own rows: roles i and j are one group iff
// |Rⁱ| = g⁽ⁱ'ʲ⁾ = |Rʲ|. A hash collision therefore never merges
// distinct roles.
//
// Each side caches its buckets' groups and remembers which buckets
// events touched, so an audit costs the buckets changed since the
// previous audit plus its output; only a session's first audit splits
// every bucket. The groups an audit returns are shared with the
// session and with later audits, and are read-only.
//
// A Session is the O(delta) counterpart of core.Analyze's class-4
// findings: after any event sequence, Audit() returns exactly the
// same-user and same-permission groups a full re-analysis of the
// mutated dataset would report (the differential suite in
// internal/testkit proves this over every seeded corpus, and
// FuzzSessionAudit under adversarial event orders).
package session

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/rbac"
	"repro/internal/replay"
	"repro/internal/ttl"
)

// Sentinel errors.
var (
	// ErrNotFound reports an unknown or expired session id.
	ErrNotFound = errors.New("session: not found")
	// ErrTooManySessions reports the manager's live-session cap.
	ErrTooManySessions = errors.New("session: too many live sessions")
)

// Session is one live mutation stream over a base dataset. All methods
// are safe for concurrent use.
type Session struct {
	mu sync.Mutex

	id      string
	base    string // content digest of the base dataset
	created time.Time
	touched time.Time

	ds    *rbac.Dataset
	users bucketIndex // roles by the hash of their user set
	perms bucketIndex // roles by the hash of their permission set

	applied int // events applied over the session's lifetime

	// The dataset's edge counts, kept by apply so that stats need no
	// walk over every role's rows.
	userEdges, permEdges int
}

// New builds a session over its own clone of base. The digest is
// carried verbatim into Info/Audit for correlation; it is not
// recomputed here.
func New(id, digest string, base *rbac.Dataset) *Session {
	ds := base.Clone()
	return &Session{
		id:        id,
		base:      digest,
		created:   time.Now(),
		touched:   time.Now(),
		ds:        ds,
		users:     newBucketIndex(ds, userRows(ds)),
		perms:     newBucketIndex(ds, permRows(ds)),
		userEdges: ds.NumUserAssignments(),
		permEdges: ds.NumPermissionAssignments(),
	}
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Base returns the base dataset's content digest.
func (s *Session) Base() string { return s.base }

// Apply validates and applies events in order, mutating the dataset
// and both bucket indices. It stops at the first failing event and
// reports how many events before it applied cleanly — the session
// stays consistent at that prefix; nothing of the failed event takes
// effect.
func (s *Session) Apply(events []replay.Event) (applied int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touched = time.Now()
	for i, e := range events {
		if err := s.apply(e); err != nil {
			return i, fmt.Errorf("event %d (%s): %w", i, e.Op, err)
		}
		s.applied++
	}
	return len(events), nil
}

// apply runs one event against the dataset and folds it into the
// buckets and the edge counts. Whatever they need from the pre-event
// dataset is read first; they move only once the dataset accepted the
// event.
func (s *Session) apply(e replay.Event) error {
	var (
		x       *bucketIndex
		word    uint64
		toggled []rbac.RoleID // roles whose set gains or loses the column
		du, dp  int           // change in the user and permission edge counts
	)
	// An assign or revoke changes a set only when the edge is not
	// already as the event leaves it.
	switch e.Op {
	case replay.OpAssignUser, replay.OpRevokeUser:
		x, word = &s.users, hashID(string(e.User))
		if s.ds.HasAssignment(e.Role, e.User) != (e.Op == replay.OpAssignUser) {
			toggled = []rbac.RoleID{e.Role}
			du = edgeDelta(e.Op == replay.OpAssignUser)
		}
	case replay.OpAssignPermission, replay.OpRevokePermission:
		x, word = &s.perms, hashID(string(e.Permission))
		if s.ds.HasPermission(e.Role, e.Permission) != (e.Op == replay.OpAssignPermission) {
			toggled = []rbac.RoleID{e.Role}
			dp = edgeDelta(e.Op == replay.OpAssignPermission)
		}
	case replay.OpRemoveUser:
		x, word = &s.users, hashID(string(e.User))
		if ui, ok := s.ds.UserIndex(e.User); ok {
			toggled = s.holders(userRows(s.ds), ui)
			du = -len(toggled)
		}
	case replay.OpRemovePermission:
		x, word = &s.perms, hashID(string(e.Permission))
		if pi, ok := s.ds.PermissionIndex(e.Permission); ok {
			toggled = s.holders(permRows(s.ds), pi)
			dp = -len(toggled)
		}
	case replay.OpRemoveRole:
		if ri, ok := s.ds.RoleIndex(e.Role); ok {
			du, dp = -s.ds.NumRoleUsers(ri), -s.ds.NumRolePermissions(ri)
		}
	}
	if err := replay.Apply(s.ds, e); err != nil {
		return err
	}
	s.userEdges += du
	s.permEdges += dp
	switch e.Op {
	case replay.OpAddRole:
		s.users.file(e.Role, 0)
		s.perms.file(e.Role, 0)
	case replay.OpRemoveRole:
		s.users.remove(e.Role)
		s.perms.remove(e.Role)
	}
	for _, r := range toggled {
		x.toggle(r, word)
	}
	return nil
}

// edgeDelta is the edge-count change of an assign (+1) or revoke (-1)
// that toggled its edge.
func edgeDelta(assign bool) int {
	if assign {
		return 1
	}
	return -1
}

// holders lists the roles whose row on one side holds column c, by an
// O(roles) scan of the dataset.
func (s *Session) holders(side rows, c int) []rbac.RoleID {
	var out []rbac.RoleID
	for ri := 0; ri < s.ds.NumRoles(); ri++ {
		if _, ok := slices.BinarySearch(side.row(ri), int32(c)); ok {
			out = append(out, s.ds.Role(ri))
		}
	}
	return out
}

// Audit is the duplicate-group report: role groups sharing identical
// user sets and identical permission sets, matching the class-4
// findings of a full core.Analyze of the mutated dataset (empty
// assignment sets are excluded, as the framework files those under
// class 2). Groups and members are sorted lexically so equal audits
// are byte-identical when encoded.
type Audit struct {
	Base                 string          `json:"base"`
	Events               int             `json:"events"`
	Stats                rbac.Stats      `json:"stats"`
	SameUserGroups       [][]rbac.RoleID `json:"sameUserGroups"`
	SamePermissionGroups [][]rbac.RoleID `json:"samePermissionGroups"`
}

// Audit snapshots the current duplicate groups off the buckets — no
// engine run, no matrix materialisation. It splits only the buckets
// that events touched since the previous audit, so it costs those
// buckets plus its output.
//
// The returned groups are shared: later audits of this session return
// the same slices for groups that did not change, and nothing writes
// to them after they are returned, so they may be read or encoded
// without the session's lock while events keep applying. Callers must
// not modify them.
func (s *Session) Audit() Audit {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touched = time.Now()
	return Audit{
		Base:                 s.base,
		Events:               s.applied,
		Stats:                s.stats(),
		SameUserGroups:       s.users.groups(),
		SamePermissionGroups: s.perms.groups(),
	}
}

// stats is ds.Stats() from the kept edge counts. The caller holds mu.
func (s *Session) stats() rbac.Stats {
	return rbac.Stats{
		Users:                 s.ds.NumUsers(),
		Roles:                 s.ds.NumRoles(),
		Permissions:           s.ds.NumPermissions(),
		UserAssignments:       s.userEdges,
		PermissionAssignments: s.permEdges,
	}
}

// Dataset returns a snapshot clone of the session's current dataset.
func (s *Session) Dataset() *rbac.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ds.Clone()
}

// Info is a session snapshot for listings and create responses.
type Info struct {
	ID      string     `json:"id"`
	Base    string     `json:"base"`
	Events  int        `json:"events"`
	Stats   rbac.Stats `json:"stats"`
	Created time.Time  `json:"created"`
	Touched time.Time  `json:"touched"`
}

// Info snapshots identity, event count, and dataset stats.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		ID:      s.id,
		Base:    s.base,
		Events:  s.applied,
		Stats:   s.stats(),
		Created: s.created,
		Touched: s.touched,
	}
}

// Options configures a Manager.
type Options struct {
	// TTL expires sessions idle (no Apply/Audit/Get) that long;
	// defaults to 30 minutes. Expiry is checked lazily on access and
	// garbage-collected by a background sweeper.
	TTL time.Duration
	// MaxSessions caps live sessions; Create past it fails with
	// ErrTooManySessions. Defaults to 128.
	MaxSessions int
}

func (o Options) withDefaults() Options {
	if o.TTL <= 0 {
		o.TTL = 30 * time.Minute
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 128
	}
	return o
}

// Manager owns the live sessions of one node: creation, lookup with
// idle-TTL expiry, and a background sweep bounding memory for
// abandoned ids.
type Manager struct {
	opts    Options
	mu      sync.Mutex
	live    map[string]*Session
	sweeper *ttl.Sweeper
	closed  bool
}

// NewManager builds a manager and starts its sweeper.
func NewManager(opts Options) *Manager {
	m := &Manager{opts: opts.withDefaults(), live: make(map[string]*Session)}
	m.sweeper = ttl.NewSweeper(nil, ttl.Interval(m.opts.TTL), m.sweep)
	return m
}

// Create opens a session over base (identified by its content digest)
// and registers it under a fresh id.
func (m *Manager) Create(digest string, base *rbac.Dataset) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("session: manager closed")
	}
	if len(m.live) >= m.opts.MaxSessions {
		return nil, fmt.Errorf("%w (%d live)", ErrTooManySessions, len(m.live))
	}
	s := New(newID(), digest, base)
	m.live[s.id] = s
	return s, nil
}

// Get resolves a live session, touching its idle timer. An expired
// session is removed and reported as ErrNotFound.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.live[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.mu.Lock()
	expired := ttl.Expired(s.touched, time.Now(), m.opts.TTL)
	if !expired {
		s.touched = time.Now()
	}
	s.mu.Unlock()
	if expired {
		delete(m.live, id)
		return nil, fmt.Errorf("%w: %q (expired)", ErrNotFound, id)
	}
	return s, nil
}

// Delete closes a session; it reports whether the id was live.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.live[id]
	delete(m.live, id)
	return ok
}

// Len counts live sessions (including not-yet-swept expired ones).
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live)
}

// List snapshots every live session, ordered by id.
func (m *Manager) List() []Info {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.live))
	for _, s := range m.live {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	out := make([]Info, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close stops the sweeper and drops every session.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.live = make(map[string]*Session)
	m.mu.Unlock()
	m.sweeper.Stop()
}

// sweep garbage-collects idle-expired sessions.
func (m *Manager) sweep(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, s := range m.live {
		s.mu.Lock()
		expired := ttl.Expired(s.touched, now, m.opts.TTL)
		s.mu.Unlock()
		if expired {
			delete(m.live, id)
		}
	}
}

// newID mints a 16-hex-character session id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a time-derived id
		// keeps the daemon limping rather than panicking.
		return fmt.Sprintf("s%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
