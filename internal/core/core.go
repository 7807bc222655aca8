// Package core implements the paper's detection framework: a taxonomy
// of five RBAC data inefficiencies (§III-A) and detectors for each of
// them over the RUAM/RPAM assignment matrices (§III-B).
//
// Classes 1-3 (standalone nodes, roles without users/permissions, roles
// with a single user/permission) are linear scans over row and column
// sums. Classes 4-5 (roles sharing the same or similar users or
// permissions) delegate to one of the three group-finding methods in
// methods.go, with the paper's Role Diet algorithm as the default.
//
// Detected inefficiencies are reported, never fixed automatically: the
// paper stresses that each instance may be a legitimate corner case
// (e.g. a role assigned only to the CEO) and needs administrator
// review. Fix planning lives in internal/consolidate.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bitmat"
	"repro/internal/rbac"
)

// InefficiencyKind enumerates the taxonomy of §III-A.
type InefficiencyKind int

// The five inefficiency classes.
const (
	// KindStandaloneNode: users/permissions connected to no role, and
	// roles connected to neither users nor permissions.
	KindStandaloneNode InefficiencyKind = iota + 1
	// KindDisconnectedRole: roles with no users, or with no permissions
	// (but not both — that is a standalone node).
	KindDisconnectedRole
	// KindSingleAssignment: roles with exactly one user or exactly one
	// permission.
	KindSingleAssignment
	// KindSameGroup: roles sharing exactly the same users or the same
	// permissions.
	KindSameGroup
	// KindSimilarGroup: roles sharing the same users/permissions up to
	// an administrator-set threshold of differences.
	KindSimilarGroup
)

// String names the inefficiency class.
func (k InefficiencyKind) String() string {
	switch k {
	case KindStandaloneNode:
		return "standalone-node"
	case KindDisconnectedRole:
		return "disconnected-role"
	case KindSingleAssignment:
		return "single-assignment"
	case KindSameGroup:
		return "same-group"
	case KindSimilarGroup:
		return "similar-group"
	default:
		return fmt.Sprintf("core.InefficiencyKind(%d)", int(k))
	}
}

// Options configures a full analysis run.
//
// The JSON form is the single wire schema for analysis options, shared
// by the HTTP server's body contract ({"dataset": ..., "options":
// {...}}), the async jobs API, and the CLI's -options flag:
//
//	{
//	  "method": "rolediet" | "dbscan" | "hnsw" | "dbscan-float64",
//	  "threshold": 1,
//	  "skipSimilar": false,
//	  "skipGroups": false,
//	  "group": { ... method-specific knobs, see GroupOptions ... }
//	}
//
// UnmarshalJSON rejects unknown method names and negative thresholds,
// so every consumer applies identical validation.
type Options struct {
	// Method selects the group-finding algorithm for classes 4-5;
	// defaults to MethodRoleDiet.
	Method Method `json:"method,omitempty"`
	// SimilarThreshold is the class-5 threshold k (number of tolerated
	// differences); defaults to 1, the paper's "all but one" case.
	SimilarThreshold int `json:"threshold,omitempty"`
	// SkipSimilar disables the class-5 detectors (the most expensive
	// ones after class 4).
	SkipSimilar bool `json:"skipSimilar,omitempty"`
	// SkipGroups disables classes 4 and 5 entirely, leaving only the
	// linear-time detectors.
	SkipGroups bool `json:"skipGroups,omitempty"`
	// Group carries method-specific knobs; Threshold and Method inside
	// it are overwritten per detector run.
	Group GroupOptions `json:"group,omitempty"`
	// Workers fans each grouping detector out over this many goroutines
	// (see GroupOptions.Workers for semantics). 0 and 1 run serially,
	// >= 2 runs the parallel backend variants, negative is rejected. It
	// overrides Group.Workers when set so "workers" at the top level of
	// the wire schema governs the whole analysis.
	Workers int `json:"workers,omitempty"`
	// Progress, when non-nil, receives (stage, fraction) updates as the
	// analysis advances: once at every stage boundary, and from inside
	// the hard-class (4-5) grouping loops on the same stride the engine
	// polls for cancellation. Fractions are in [0, 1], non-decreasing
	// across one analysis, and reach 1 on success. The hook runs on the
	// analysis goroutine and must be cheap and non-blocking. Not part of
	// the wire schema.
	Progress func(stage string, fraction float64) `json:"-"`
}

// UnmarshalJSON decodes the shared wire schema, rejecting unknown
// methods (via Method.UnmarshalText) and negative thresholds at decode
// time so malformed options never reach an engine.
func (o *Options) UnmarshalJSON(data []byte) error {
	type plain Options
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	if p.SimilarThreshold < 0 {
		return fmt.Errorf("core: negative similar threshold %d", p.SimilarThreshold)
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: negative workers %d", p.Workers)
	}
	*o = Options(p)
	return nil
}

func (o Options) withDefaults() Options {
	if o.Method == 0 {
		o.Method = MethodRoleDiet
	}
	if o.SimilarThreshold == 0 {
		o.SimilarThreshold = 1
	}
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.SimilarThreshold < 0 {
		return fmt.Errorf("core: negative similar threshold %d", o.SimilarThreshold)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative workers %d", o.Workers)
	}
	return nil
}

// RoleGroup is one detected group of interchangeable roles.
type RoleGroup struct {
	// Roles lists the group members.
	Roles []rbac.RoleID `json:"roles"`
}

// Report is the outcome of a full analysis. Counts of roles "in" a
// grouped inefficiency count every member of every group, matching how
// the paper reports "8,000 roles sharing the same users".
type Report struct {
	// Stats snapshots the analysed dataset's shape.
	Stats rbac.Stats `json:"stats"`
	// Method is the group-finding algorithm used for classes 4-5.
	Method string `json:"method"`
	// SimilarThreshold is the class-5 threshold used.
	SimilarThreshold int `json:"similarThreshold"`

	// Class 1: standalone nodes.
	StandaloneUsers       []rbac.UserID       `json:"standaloneUsers"`
	StandalonePermissions []rbac.PermissionID `json:"standalonePermissions"`
	StandaloneRoles       []rbac.RoleID       `json:"standaloneRoles"`

	// Class 2: roles connected on one side only.
	RolesWithoutUsers       []rbac.RoleID `json:"rolesWithoutUsers"`
	RolesWithoutPermissions []rbac.RoleID `json:"rolesWithoutPermissions"`

	// Class 3: roles with exactly one assignment on a side.
	RolesWithSingleUser       []rbac.RoleID `json:"rolesWithSingleUser"`
	RolesWithSinglePermission []rbac.RoleID `json:"rolesWithSinglePermission"`

	// Class 4: roles sharing exactly the same users / permissions.
	SameUserGroups       []RoleGroup `json:"sameUserGroups"`
	SamePermissionGroups []RoleGroup `json:"samePermissionGroups"`

	// Class 5: roles within SimilarThreshold differences.
	SimilarUserGroups       []RoleGroup `json:"similarUserGroups"`
	SimilarPermissionGroups []RoleGroup `json:"similarPermissionGroups"`

	// Durations per phase, for the scalability story.
	LinearScanDuration   time.Duration `json:"linearScanDurationNanos"`
	SameGroupsDuration   time.Duration `json:"sameGroupsDurationNanos"`
	SimilarGroupDuration time.Duration `json:"similarGroupsDurationNanos"`
}

// Analyzer runs the detection framework over one dataset snapshot.
// NewAnalyzer copies everything the detectors read: the entity IDs, the
// dataset's shape, and per side the row sums, the column degrees and
// the non-empty rows. The dataset itself is not retained. The one-shot
// Analyze and AnalyzeContext read the IDs and rows in place instead,
// with an Analyzer from a pool (see reset).
type Analyzer struct {
	ids   ids
	stats rbac.Stats
	ruam  side
	rpam  side
}

// ids holds the entity IDs in dataset index order, mapping detector
// output (row and column indices) back to the dataset's names.
type ids struct {
	users []rbac.UserID
	roles []rbac.RoleID
	perms []rbac.PermissionID
}

// counts holds one assignment matrix's row sums (per role) and column
// degrees (per user or permission): all the class-1/2/3 detectors read.
type counts struct {
	rowSums []int32
	colDeg  []int32
}

// side is one assignment matrix as the analysis holds it: its counts,
// its width, its non-empty rows, and the remap from kept row back to
// dataset role index. Grouping runs over the non-empty rows only, so
// disconnected roles (class 2) cannot resurface as one giant class-4
// group of all-zero rows.
type side struct {
	counts
	cols  int
	rows  [][]int32
	remap []int32
}

// NewAnalyzer snapshots the dataset: each side's non-empty rows are
// copied into one backing array, so later dataset mutations are not
// observed.
func NewAnalyzer(d *rbac.Dataset) *Analyzer {
	a := new(Analyzer)
	a.reset(d, ids{users: d.Users(), roles: d.Roles(), perms: d.Permissions()}, true)
	return a
}

// reset points a at d and the given entity IDs, reusing a's arrays.
// NewAnalyzer passes copies and copyRows; the one-shot Analyze and
// AnalyzeContext pass the dataset's own ID slices (rbac.Dataset.IDs)
// and keep its rows in place, which hold for the call because d may not
// change during it. The report copies the IDs it names.
func (a *Analyzer) reset(d *rbac.Dataset, id ids, copyRows bool) {
	a.ids, a.stats = id, d.Stats()
	a.ruam.reset(d.NumRoles(), d.NumUsers(), d.RoleUserRow, copyRows)
	a.rpam.reset(d.NumRoles(), d.NumPermissions(), d.RolePermissionRow, copyRows)
}

// reset counts one assignment matrix of n rows, cols wide, into s's
// arrays, grown as needed, and keeps its non-empty rows: in place, or
// copied into one new backing array when copyRows is set.
func (s *side) reset(n, cols int, row func(ri int) []int32, copyRows bool) {
	s.cols = cols
	s.rowSums = slices.Grow(s.rowSums[:0], n)[:n]
	s.colDeg = slices.Grow(s.colDeg[:0], cols)[:cols]
	clear(s.colDeg)
	kept, nnz := 0, 0
	for ri := 0; ri < n; ri++ {
		r := row(ri)
		s.rowSums[ri] = int32(len(r))
		for _, j := range r {
			s.colDeg[j]++
		}
		if len(r) > 0 {
			kept++
			nnz += len(r)
		}
	}
	var flat []int32
	if copyRows {
		flat = make([]int32, 0, nnz)
	}
	s.rows = slices.Grow(s.rows[:0], kept)
	s.remap = slices.Grow(s.remap[:0], kept)
	for ri := 0; ri < n; ri++ {
		r := row(ri)
		if len(r) == 0 {
			continue
		}
		if copyRows {
			flat = append(flat, r...)
			r = flat[len(flat)-len(r) : len(flat) : len(flat)]
		}
		s.rows = append(s.rows, r)
		s.remap = append(s.remap, int32(ri))
	}
}

// Analyze runs every enabled detector and assembles the report.
func (a *Analyzer) Analyze(opts Options) (*Report, error) {
	return a.AnalyzeContext(context.Background(), opts)
}

// AnalyzeContext is Analyze with cooperative cancellation. The context
// is threaded into every group-finding backend, which poll it inside
// their hot loops, so a cancelled or timed-out request stops burning
// CPU within a bounded amount of work; the partial report is discarded
// and ctx.Err() returned.
func (a *Analyzer) AnalyzeContext(ctx context.Context, opts Options) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	progress := progressReporter(opts.Progress)

	rep := &Report{
		Stats:            a.stats,
		Method:           opts.Method.String(),
		SimilarThreshold: opts.SimilarThreshold,
	}

	progress.emit(StageLinearScan, 0)
	start := time.Now()
	detectLinear(rep, a.ids, a.ruam.counts, a.rpam.counts)
	rep.LinearScanDuration = time.Since(start)
	progress.emit(StageLinearScan, fracLinearEnd)

	if opts.SkipGroups {
		progress.emit(StageDone, 1)
		return rep, nil
	}

	gopts := opts.Group
	gopts.Method = opts.Method
	if opts.Workers != 0 {
		gopts.Workers = opts.Workers
	}
	start = time.Now()
	// The backends that read an arena get one per side, packed once so
	// the class-4 and class-5 runs share it.
	var ruamMat, rpamMat *bitmat.Matrix
	if opts.Method.readsArena() {
		ruamMat, rpamMat = bitmat.Pack(a.ruam.cols, a.ruam.rows), bitmat.Pack(a.rpam.cols, a.rpam.rows)
	}
	gopts.Threshold = 0
	gopts.Progress = progress.span(StageSameUserGroups, fracLinearEnd, fracSameUserEnd)
	sameUsers, err := a.ruam.findGroups(ctx, ruamMat, gopts)
	if err != nil {
		return nil, fmt.Errorf("same-user groups: %w", err)
	}
	progress.emit(StageSameUserGroups, fracSameUserEnd)
	gopts.Progress = progress.span(StageSamePermissionGroups, fracSameUserEnd, fracSamePermEnd)
	samePerms, err := a.rpam.findGroups(ctx, rpamMat, gopts)
	if err != nil {
		return nil, fmt.Errorf("same-permission groups: %w", err)
	}
	progress.emit(StageSamePermissionGroups, fracSamePermEnd)
	rep.SameUserGroups = a.ids.roleGroups(sameUsers)
	rep.SamePermissionGroups = a.ids.roleGroups(samePerms)
	rep.SameGroupsDuration = time.Since(start)

	if opts.SkipSimilar {
		progress.emit(StageDone, 1)
		return rep, nil
	}

	start = time.Now()
	gopts.Threshold = opts.SimilarThreshold
	gopts.Progress = progress.span(StageSimilarUserGroups, fracSamePermEnd, fracSimilarUserEnd)
	similarUsers, err := a.ruam.findGroups(ctx, ruamMat, gopts)
	if err != nil {
		return nil, fmt.Errorf("similar-user groups: %w", err)
	}
	progress.emit(StageSimilarUserGroups, fracSimilarUserEnd)
	gopts.Progress = progress.span(StageSimilarPermissionGroups, fracSimilarUserEnd, fracSimilarPermEnd)
	similarPerms, err := a.rpam.findGroups(ctx, rpamMat, gopts)
	if err != nil {
		return nil, fmt.Errorf("similar-permission groups: %w", err)
	}
	progress.emit(StageSimilarPermissionGroups, fracSimilarPermEnd)
	rep.SimilarUserGroups = a.ids.roleGroups(similarUsers)
	rep.SimilarPermissionGroups = a.ids.roleGroups(similarPerms)
	rep.SimilarGroupDuration = time.Since(start)

	progress.emit(StageDone, 1)
	return rep, nil
}

// detectLinear runs the class-1/2/3 detectors: users and permissions
// with column degree zero (class 1), roles with a zero row sum on both
// sides (class 1), on exactly one side (class 2), or a row sum of one
// (class 3). They read only counts.
func detectLinear(rep *Report, id ids, ruam, rpam counts) {
	users, perms := ruam.rowSums, rpam.rowSums
	rep.StandaloneUsers = pick(id.users, func(ui int) bool { return ruam.colDeg[ui] == 0 })
	rep.StandalonePermissions = pick(id.perms, func(pi int) bool { return rpam.colDeg[pi] == 0 })
	rep.StandaloneRoles = pick(id.roles, func(ri int) bool { return users[ri] == 0 && perms[ri] == 0 })
	rep.RolesWithoutUsers = pick(id.roles, func(ri int) bool { return users[ri] == 0 && perms[ri] != 0 })
	rep.RolesWithoutPermissions = pick(id.roles, func(ri int) bool { return users[ri] != 0 && perms[ri] == 0 })
	rep.RolesWithSingleUser = pick(id.roles, func(ri int) bool { return users[ri] == 1 })
	rep.RolesWithSinglePermission = pick(id.roles, func(ri int) bool { return perms[ri] == 1 })
}

// pick returns the IDs whose positions keep accepts, in position order,
// counted first so the list is allocated once at its length; nil, which
// the report encodes as null, when there are none.
func pick[ID any](ids []ID, keep func(i int) bool) []ID {
	n := 0
	for i := range ids {
		if keep(i) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]ID, 0, n)
	for i, id := range ids {
		if keep(i) {
			out = append(out, id)
		}
	}
	return out
}

// findGroups runs one grouping detector over the side's non-empty rows,
// m being their arena for the methods that read one, and remaps group
// members back to dataset role indices.
func (s *side) findGroups(ctx context.Context, m *bitmat.Matrix, opts GroupOptions) ([][]int, error) {
	groups, err := findGroups(ctx, s.cols, s.rows, m, opts)
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		for i, idx := range g {
			g[i] = int(s.remap[idx])
		}
	}
	return groups, nil
}

// roleGroups maps index groups to role-id groups.
func (id ids) roleGroups(groups [][]int) []RoleGroup {
	out := make([]RoleGroup, len(groups))
	for gi, g := range groups {
		members := make([]rbac.RoleID, len(g))
		for i, ri := range g {
			members[i] = id.roles[ri]
		}
		out[gi] = RoleGroup{Roles: members}
	}
	return out
}

// Analyze is the one-call convenience API: snapshot, detect, report.
// d must not change until it returns.
func Analyze(d *rbac.Dataset, opts Options) (*Report, error) {
	return AnalyzeContext(context.Background(), d, opts)
}

// AnalyzeContext is Analyze bound to a context: the analysis aborts
// with ctx.Err() soon after the context is cancelled or its deadline
// passes. This is the entry point request-scoped callers (the HTTP
// server) use so client disconnects, per-request timeouts, and daemon
// drains all stop in-flight detection work. d must not change until it
// returns: the analysis reads its ID slices and rows in place.
func AnalyzeContext(ctx context.Context, d *rbac.Dataset, opts Options) (*Report, error) {
	users, roles, perms := d.IDs()
	a := analyzerPool.Get().(*Analyzer)
	a.reset(d, ids{users: users, roles: roles, perms: perms}, false)
	rep, err := a.AnalyzeContext(ctx, opts)
	a.release()
	return rep, err
}

// analyzerPool recycles the one-shot AnalyzeContext's analyzers, so
// one call's per-side arrays (row sums, column degrees, kept rows and
// remap) serve the next. NewAnalyzer's analyzers outlive the call and
// are never pooled.
var analyzerPool = sync.Pool{New: func() any { return new(Analyzer) }}

// release drops a's references into the dataset it analysed, its ID
// slices and kept rows, so an idle pool keeps no dataset alive, and
// pools it. The report shares none of a's arrays.
func (a *Analyzer) release() {
	a.ids = ids{}
	clear(a.ruam.rows)
	clear(a.rpam.rows)
	analyzerPool.Put(a)
}
