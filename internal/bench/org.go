package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// formatBytes renders a byte count with a binary unit.
func formatBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// OrgResult is the outcome of the organisation-scale audit (§IV-B):
// the detection report, the planted ground truth, and phase timings.
type OrgResult struct {
	Report      *core.Report        `json:"report"`
	GroundTruth *gen.OrgGroundTruth `json:"groundTruth"`
	GenerateDur time.Duration       `json:"generateDurationNanos"`
	AnalyzeDur  time.Duration       `json:"analyzeDurationNanos"`
	ScaleDiv    int                 `json:"scaleDivisor"`
	Memory      MemoryComparison    `json:"memory"`
}

// MemoryComparison reports the §III-B storage trade-off for a dataset:
// the full adjacency matrix, the two dense sub-matrices, and the sparse
// rows the analysis reads, in bytes of bit/index storage.
type MemoryComparison struct {
	FullAdjacencyBytes int `json:"fullAdjacencyBytes"`
	DenseBytes         int `json:"denseBytes"`
	SparseBytes        int `json:"sparseBytes"`
}

// RunOrg generates the organisation-scale dataset (optionally shrunk by
// scaleDiv) and analyses it with core.Analyze's default Role Diet
// method, which groups over the sparse rows — the only configuration
// that completes at full scale, mirroring the paper's finding that both
// baselines had to be halted after 24 hours while the custom algorithm
// finished in about two minutes.
func RunOrg(scaleDiv int) (*OrgResult, error) {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	params := gen.DefaultOrgParams().Scaled(scaleDiv)

	start := time.Now()
	ds, gt, err := gen.Org(params)
	if err != nil {
		return nil, err
	}
	genDur := time.Since(start)

	start = time.Now()
	rep, err := core.Analyze(ds, core.Options{SimilarThreshold: 1})
	if err != nil {
		return nil, err
	}
	analyzeDur := time.Since(start)

	s := ds.Stats()
	full := s.Users + s.Roles + s.Permissions
	mem := MemoryComparison{
		// (u+r+p)^2 bits, in bytes.
		FullAdjacencyBytes: full * full / 8,
		DenseBytes:         memoryBytesDense(s.Roles, s.Users) + memoryBytesDense(s.Roles, s.Permissions),
		SparseBytes:        memoryBytesRows(s.Roles, ds.NumUserAssignments()) + memoryBytesRows(s.Roles, ds.NumPermissionAssignments()),
	}
	return &OrgResult{
		Report:      rep,
		GroundTruth: gt,
		GenerateDur: genDur,
		AnalyzeDur:  analyzeDur,
		ScaleDiv:    scaleDiv,
		Memory:      mem,
	}, nil
}

// memoryBytesDense is the footprint of a dense bit-packed matrix of the
// given shape: 64-bit words, each row rounded up to a whole word.
func memoryBytesDense(rows, cols int) int {
	return 8 * rows * ((cols + 63) / 64)
}

// memoryBytesRows is the footprint of one assignment matrix's sparse
// rows as the analysis reads them: 4 bytes per edge (an int32 column)
// plus a 24-byte slice header per row.
func memoryBytesRows(rows, edges int) int {
	return 24*rows + 4*edges
}

// Table renders the §IV-B comparison: one row per reported figure,
// planted vs detected. "similar (detected)" counts include the exact
// groups, which are within any positive threshold by definition; the
// "similar only" rows subtract them to match the paper's phrasing
// "share the same users, except for one".
func (o *OrgResult) Table() string {
	rep, gt := o.Report, o.GroundTruth
	var b strings.Builder
	fmt.Fprintf(&b, "organisation-scale audit (scale 1/%d): %d users, %d roles, %d permissions\n",
		o.ScaleDiv, rep.Stats.Users, rep.Stats.Roles, rep.Stats.Permissions)
	fmt.Fprintf(&b, "generate %v, analyze %v (linear %v, same %v, similar %v)\n\n",
		o.GenerateDur.Round(time.Millisecond), o.AnalyzeDur.Round(time.Millisecond),
		rep.LinearScanDuration.Round(time.Millisecond),
		rep.SameGroupsDuration.Round(time.Millisecond),
		rep.SimilarGroupDuration.Round(time.Millisecond))

	fmt.Fprintf(&b, "%-44s %10s %10s\n", "inefficiency", "planted", "detected")
	row := func(name string, planted, detected int) {
		mark := ""
		if planted != detected {
			mark = "  <- MISMATCH"
		}
		fmt.Fprintf(&b, "%-44s %10d %10d%s\n", name, planted, detected, mark)
	}
	row("standalone users", gt.StandaloneUsers, len(rep.StandaloneUsers))
	row("standalone permissions", gt.StandalonePermissions, len(rep.StandalonePermissions))
	row("roles without users", gt.RolesWithoutUsers, len(rep.RolesWithoutUsers))
	row("roles without permissions", gt.RolesWithoutPermissions, len(rep.RolesWithoutPermissions))
	row("roles with a single user", gt.SingleUserRoles, len(rep.RolesWithSingleUser))
	row("roles with a single permission", gt.SinglePermissionRoles, len(rep.RolesWithSinglePermission))

	same := core.StatsOf(rep.SameUserGroups)
	samep := core.StatsOf(rep.SamePermissionGroups)
	row("roles sharing the same users", gt.SameUserGroupRoles, same.RolesInGroups)
	row("roles sharing the same permissions", gt.SamePermissionGroupRoles, samep.RolesInGroups)

	sim := core.StatsOf(rep.SimilarUserGroups)
	simp := core.StatsOf(rep.SimilarPermissionGroups)
	row("roles sharing all but one user (similar only)",
		gt.SimilarUserGroupRoles, sim.RolesInGroups-same.RolesInGroups)
	row("roles sharing all but one permission (similar only)",
		gt.SimilarPermissionGroupRoles, simp.RolesInGroups-samep.RolesInGroups)

	reducible := rep.TotalReducibleRoles()
	fmt.Fprintf(&b, "\nconsolidating class-4 groups removes %d of %d roles (%.1f%%)\n",
		reducible, rep.Stats.Roles, 100*float64(reducible)/float64(rep.Stats.Roles))
	fmt.Fprintf(&b, "storage (paper section III-B): full adjacency %s, dense RUAM+RPAM %s, rows %s\n",
		formatBytes(o.Memory.FullAdjacencyBytes), formatBytes(o.Memory.DenseBytes),
		formatBytes(o.Memory.SparseBytes))
	return b.String()
}

// Matches reports whether every detected count equals its planted
// ground truth.
func (o *OrgResult) Matches() bool {
	rep, gt := o.Report, o.GroundTruth
	same := core.StatsOf(rep.SameUserGroups)
	samep := core.StatsOf(rep.SamePermissionGroups)
	sim := core.StatsOf(rep.SimilarUserGroups)
	simp := core.StatsOf(rep.SimilarPermissionGroups)
	return len(rep.StandaloneUsers) == gt.StandaloneUsers &&
		len(rep.StandalonePermissions) == gt.StandalonePermissions &&
		len(rep.RolesWithoutUsers) == gt.RolesWithoutUsers &&
		len(rep.RolesWithoutPermissions) == gt.RolesWithoutPermissions &&
		len(rep.RolesWithSingleUser) == gt.SingleUserRoles &&
		len(rep.RolesWithSinglePermission) == gt.SinglePermissionRoles &&
		same.RolesInGroups == gt.SameUserGroupRoles &&
		samep.RolesInGroups == gt.SamePermissionGroupRoles &&
		sim.RolesInGroups-same.RolesInGroups == gt.SimilarUserGroupRoles &&
		simp.RolesInGroups-samep.RolesInGroups == gt.SimilarPermissionGroupRoles
}
