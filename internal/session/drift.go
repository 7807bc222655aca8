package session

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/rbac"
	"repro/internal/replay"
)

// DriftSide reports one assignment side's duplicate-group movement
// between two snapshots: the after-side groups, plus the groups that
// appeared (Gained) and disappeared (Lost) relative to before. Groups
// compare as exact member sets.
type DriftSide struct {
	Groups [][]rbac.RoleID `json:"groups"`
	Gained [][]rbac.RoleID `json:"gained"`
	Lost   [][]rbac.RoleID `json:"lost"`
}

// DriftReport is the drift-audit result — the schema POST /v1/drift
// serves and the rolediet drift subcommand prints.
type DriftReport struct {
	BeforeRef      string    `json:"before_ref"`
	AfterRef       string    `json:"after_ref"`
	Events         int       `json:"events"`
	SameUser       DriftSide `json:"sameUser"`
	SamePermission DriftSide `json:"samePermission"`
}

// Drift audits the movement between two snapshots: Reconcile computes
// the event delta, the delta replays through a throwaway session of
// before, and the report carries the after-side duplicate groups plus
// the set difference per side. Computing the delta walks both corpora
// once; the audits themselves read off the session's buckets without
// an engine run.
func Drift(beforeRef, afterRef string, before, after *rbac.Dataset) (*DriftReport, error) {
	events := replay.Reconcile(before, after)
	s := New("drift", beforeRef, before)
	beforeAudit := s.Audit()
	if n, err := s.Apply(events); err != nil {
		// Reconcile guarantees replayability onto before; failure here
		// is an internal invariant break, not bad input.
		return nil, fmt.Errorf("session: replay drift delta stopped at event %d: %w", n, err)
	}
	afterAudit := s.Audit()
	return &DriftReport{
		BeforeRef: beforeRef,
		AfterRef:  afterRef,
		Events:    len(events),
		SameUser: diffGroupSets(
			beforeAudit.SameUserGroups, afterAudit.SameUserGroups),
		SamePermission: diffGroupSets(
			beforeAudit.SamePermissionGroups, afterAudit.SamePermissionGroups),
	}, nil
}

// diffGroupSets reports after's groups plus the set difference against
// before. The groups are an audit's, shared and read-only: only the
// report's own Gained and Lost slices are ordered.
func diffGroupSets(before, after [][]rbac.RoleID) DriftSide {
	side := DriftSide{Groups: after, Gained: [][]rbac.RoleID{}, Lost: [][]rbac.RoleID{}}
	if side.Groups == nil {
		side.Groups = [][]rbac.RoleID{}
	}
	bk := make(map[string]bool, len(before))
	for _, g := range before {
		bk[groupKey(g)] = true
	}
	ak := make(map[string]bool, len(after))
	for _, g := range after {
		k := groupKey(g)
		ak[k] = true
		if !bk[k] {
			side.Gained = append(side.Gained, g)
		}
	}
	for _, g := range before {
		if !ak[groupKey(g)] {
			side.Lost = append(side.Lost, g)
		}
	}
	slices.SortFunc(side.Gained, compareLeads)
	slices.SortFunc(side.Lost, compareLeads)
	return side
}

// groupKey renders a member list as an order-independent map key.
func groupKey(g []rbac.RoleID) string {
	ids := make([]string, len(g))
	for i, id := range g {
		ids[i] = string(id)
	}
	sort.Strings(ids)
	return strings.Join(ids, "\x00")
}

// SortGroups orders groups canonically: members lexically inside each
// group, groups by first member. Audit output is already in this
// order; exported for callers normalising engine reports against it.
func SortGroups(groups [][]rbac.RoleID) {
	for _, g := range groups {
		slices.Sort(g)
	}
	slices.SortFunc(groups, compareLeads)
}

// compareLeads orders groups by first member, an empty group first.
func compareLeads(a, b []rbac.RoleID) int {
	if len(a) == 0 || len(b) == 0 {
		return cmp.Compare(len(a), len(b))
	}
	return cmp.Compare(a[0], b[0])
}
