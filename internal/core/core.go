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
//	  "method": "rolediet" | "dbscan" | "hnsw" | "lsh" | "dbscan-float64",
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
// the bit-matrix arena of the non-empty rows. The snapshot is the
// arena; the dataset itself is not retained.
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
	rowSums []int
	colDeg  []int
}

// side is one assignment matrix as the analysis holds it: its counts,
// the arena packing its non-empty rows, and the remap from arena row
// back to dataset role index. Grouping runs over the arena only, so
// disconnected roles (class 2) cannot resurface as one giant class-4
// group of all-zero rows, and an analysis's threshold-0 and threshold-k
// runs share one packing.
type side struct {
	counts
	remap []int
	mat   *bitmat.Matrix
}

// NewAnalyzer snapshots the dataset. Each bit of RUAM and RPAM is
// written once, straight into its side's arena; later dataset mutations
// are not observed.
func NewAnalyzer(d *rbac.Dataset) *Analyzer {
	return &Analyzer{
		ids:   ids{users: d.Users(), roles: d.Roles(), perms: d.Permissions()},
		stats: d.Stats(),
		ruam:  packSide(d, false, d.NumUsers()),
		rpam:  packSide(d, true, d.NumPermissions()),
	}
}

// packSide builds one side of the snapshot in two passes over the
// roles' assignment sets: the first counts row sums and column degrees,
// which fix the non-empty rows; the second sets their bits in an arena
// sized to them.
func packSide(d *rbac.Dataset, perms bool, cols int) side {
	n := d.NumRoles()
	s := side{counts: counts{rowSums: make([]int, n), colDeg: make([]int, cols)}}
	kept := 0
	for ri := 0; ri < n; ri++ {
		forEachCol(d, perms, ri, func(j int) bool {
			s.rowSums[ri]++
			s.colDeg[j]++
			return true
		})
		if s.rowSums[ri] > 0 {
			kept++
		}
	}
	s.remap = make([]int, 0, kept)
	for ri, sum := range s.rowSums {
		if sum > 0 {
			s.remap = append(s.remap, ri)
		}
	}
	s.mat = bitmat.New(kept, cols)
	for row, ri := range s.remap {
		forEachCol(d, perms, ri, func(j int) bool {
			s.mat.Set(row, j)
			return true
		})
	}
	return s
}

// forEachCol visits role ri's users, or its permissions when perms is
// set. Calling the dataset's iterators statically keeps the visitor
// closures on the stack, so packing allocates nothing per role.
func forEachCol(d *rbac.Dataset, perms bool, ri int, fn func(j int) bool) {
	if perms {
		d.ForEachRolePermission(ri, fn)
		return
	}
	d.ForEachRoleUser(ri, fn)
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
	gopts.Threshold = 0
	gopts.Progress = progress.span(StageSameUserGroups, fracLinearEnd, fracSameUserEnd)
	sameUsers, err := findGroups(ctx, &a.ruam, gopts)
	if err != nil {
		return nil, fmt.Errorf("same-user groups: %w", err)
	}
	progress.emit(StageSameUserGroups, fracSameUserEnd)
	gopts.Progress = progress.span(StageSamePermissionGroups, fracSameUserEnd, fracSamePermEnd)
	samePerms, err := findGroups(ctx, &a.rpam, gopts)
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
	similarUsers, err := findGroups(ctx, &a.ruam, gopts)
	if err != nil {
		return nil, fmt.Errorf("similar-user groups: %w", err)
	}
	progress.emit(StageSimilarUserGroups, fracSimilarUserEnd)
	gopts.Progress = progress.span(StageSimilarPermissionGroups, fracSimilarUserEnd, fracSimilarPermEnd)
	similarPerms, err := findGroups(ctx, &a.rpam, gopts)
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
// (class 3). They read only counts, so the dense and sparse analyses
// share it.
func detectLinear(rep *Report, id ids, ruam, rpam counts) {
	for ui, deg := range ruam.colDeg {
		if deg == 0 {
			rep.StandaloneUsers = append(rep.StandaloneUsers, id.users[ui])
		}
	}
	for pi, deg := range rpam.colDeg {
		if deg == 0 {
			rep.StandalonePermissions = append(rep.StandalonePermissions, id.perms[pi])
		}
	}
	for ri, role := range id.roles {
		users, perms := ruam.rowSums[ri], rpam.rowSums[ri]
		switch {
		case users == 0 && perms == 0:
			rep.StandaloneRoles = append(rep.StandaloneRoles, role)
		case users == 0:
			rep.RolesWithoutUsers = append(rep.RolesWithoutUsers, role)
		case perms == 0:
			rep.RolesWithoutPermissions = append(rep.RolesWithoutPermissions, role)
		}
		if users == 1 {
			rep.RolesWithSingleUser = append(rep.RolesWithSingleUser, role)
		}
		if perms == 1 {
			rep.RolesWithSinglePermission = append(rep.RolesWithSinglePermission, role)
		}
	}
}

// findGroups runs one grouping detector over a side's arena, remapping
// group members back to dataset role indices.
func findGroups(ctx context.Context, s *side, opts GroupOptions) ([][]int, error) {
	if len(s.remap) == 0 {
		return nil, nil
	}
	groups, err := findRoleGroupsMat(ctx, nil, s.mat, opts)
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		for i, idx := range g {
			g[i] = s.remap[idx]
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
func Analyze(d *rbac.Dataset, opts Options) (*Report, error) {
	return NewAnalyzer(d).Analyze(opts)
}

// AnalyzeContext is Analyze bound to a context: the analysis aborts
// with ctx.Err() soon after the context is cancelled or its deadline
// passes. This is the entry point request-scoped callers (the HTTP
// server) use so client disconnects, per-request timeouts, and daemon
// drains all stop in-flight detection work.
func AnalyzeContext(ctx context.Context, d *rbac.Dataset, opts Options) (*Report, error) {
	return NewAnalyzer(d).AnalyzeContext(ctx, opts)
}
