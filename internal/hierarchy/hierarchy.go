// Package hierarchy adds RBAC1-style role inheritance on top of the
// flat model and extends the inefficiency taxonomy to it.
//
// The paper analyses flat RBAC (RBAC0): users–roles–permissions. Most
// commercial platforms it targets also support role hierarchies, where
// a senior role inherits every permission of its juniors. A hierarchy
// changes the cleanup problem in two ways, both handled here:
//
//   - detection must run on the *flattened* assignments (a role's
//     effective permissions include everything reachable through the
//     inheritance DAG), otherwise two roles that differ only in how
//     they spell out the same inheritance would not be caught;
//   - inheritance introduces its own inefficiency classes: redundant
//     edges (an edge implied by a longer path), self-contained seniors
//     (a senior whose direct permissions already include everything a
//     junior grants), and cycles (which make the hierarchy ill-formed).
package hierarchy

import (
	"fmt"
	"sort"

	"repro/internal/rbac"
)

// Hierarchy is a set of inheritance edges over a dataset's roles:
// senior -> junior means the senior inherits the junior's permissions.
type Hierarchy struct {
	ds *rbac.Dataset
	// juniors[r] lists the direct juniors of role index r.
	juniors map[int]map[int]struct{}
}

// New creates an empty hierarchy over a dataset snapshot. The dataset
// is cloned; later mutations of the original are not observed.
func New(d *rbac.Dataset) *Hierarchy {
	return &Hierarchy{
		ds:      d.Clone(),
		juniors: make(map[int]map[int]struct{}),
	}
}

// Dataset returns the underlying snapshot.
func (h *Hierarchy) Dataset() *rbac.Dataset { return h.ds }

// AddInheritance records that senior inherits junior. Self-inheritance
// is rejected; duplicate edges are a no-op.
func (h *Hierarchy) AddInheritance(senior, junior rbac.RoleID) error {
	si, ok := h.ds.RoleIndex(senior)
	if !ok {
		return fmt.Errorf("hierarchy: %w: %q", rbac.ErrUnknownRole, senior)
	}
	ji, ok := h.ds.RoleIndex(junior)
	if !ok {
		return fmt.Errorf("hierarchy: %w: %q", rbac.ErrUnknownRole, junior)
	}
	if si == ji {
		return fmt.Errorf("hierarchy: role %q cannot inherit itself", senior)
	}
	set := h.juniors[si]
	if set == nil {
		set = make(map[int]struct{})
		h.juniors[si] = set
	}
	set[ji] = struct{}{}
	return nil
}

// NumEdges returns the number of direct inheritance edges.
func (h *Hierarchy) NumEdges() int {
	n := 0
	for _, set := range h.juniors {
		n += len(set)
	}
	return n
}

// Juniors returns the direct juniors of a role, sorted.
func (h *Hierarchy) Juniors(senior rbac.RoleID) ([]rbac.RoleID, error) {
	si, ok := h.ds.RoleIndex(senior)
	if !ok {
		return nil, fmt.Errorf("hierarchy: %w: %q", rbac.ErrUnknownRole, senior)
	}
	out := make([]rbac.RoleID, 0, len(h.juniors[si]))
	for ji := range h.juniors[si] {
		out = append(out, h.ds.Role(ji))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Cycles returns the roles involved in inheritance cycles (ids sorted).
// A well-formed hierarchy returns an empty slice; detection and
// flattening still work in the presence of cycles (members of a cycle
// all reach the same permission set) but the cycle itself is reported
// as an inefficiency because any cycle collapses to a single role.
func (h *Hierarchy) Cycles() []rbac.RoleID {
	// Tarjan-free approach: iterative DFS with colour marking; a role is
	// cyclic if it can reach itself.
	n := h.ds.NumRoles()
	reach := h.transitiveClosure(n)
	var out []rbac.RoleID
	for r := 0; r < n; r++ {
		if _, selfReach := reach[r][r]; selfReach {
			out = append(out, h.ds.Role(r))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// transitiveClosure computes reach[r] = set of roles reachable from r
// through one or more inheritance edges.
func (h *Hierarchy) transitiveClosure(n int) []map[int]struct{} {
	reach := make([]map[int]struct{}, n)
	var dfs func(r int) map[int]struct{}
	visiting := make(map[int]bool, n)
	dfs = func(r int) map[int]struct{} {
		if reach[r] != nil {
			return reach[r]
		}
		if visiting[r] {
			// Cycle: return a partial set; the caller completes it on
			// a later pass below.
			return map[int]struct{}{}
		}
		visiting[r] = true
		set := make(map[int]struct{})
		for j := range h.juniors[r] {
			set[j] = struct{}{}
			for jj := range dfs(j) {
				set[jj] = struct{}{}
			}
		}
		visiting[r] = false
		reach[r] = set
		return set
	}
	for r := 0; r < n; r++ {
		dfs(r)
	}
	// One propagation sweep fixes sets truncated by cycle short-circuits:
	// iterate until stable (bounded by n sweeps; real hierarchies are
	// shallow, cycles are small).
	for changed := true; changed; {
		changed = false
		for r := 0; r < n; r++ {
			before := len(reach[r])
			for j := range h.juniors[r] {
				reach[r][j] = struct{}{}
				for jj := range reach[j] {
					reach[r][jj] = struct{}{}
				}
			}
			if len(reach[r]) != before {
				changed = true
			}
		}
	}
	return reach
}

// Flatten materialises the effective flat dataset: every role keeps its
// direct users, and its permission set becomes the union of its own and
// every reachable junior's direct permissions. The result feeds the
// paper's flat detection framework unchanged.
func (h *Hierarchy) Flatten() (*rbac.Dataset, error) {
	n := h.ds.NumRoles()
	reach := h.transitiveClosure(n)
	out := h.ds.Clone()
	for r := 0; r < n; r++ {
		senior := h.ds.Role(r)
		for j := range reach[r] {
			perms, err := h.ds.RolePermissions(h.ds.Role(j))
			if err != nil {
				return nil, err
			}
			for _, p := range perms {
				if err := out.AssignPermission(senior, p); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// RedundantEdge is a direct inheritance edge implied by another path.
type RedundantEdge struct {
	Senior rbac.RoleID `json:"senior"`
	Junior rbac.RoleID `json:"junior"`
}

// RedundantEdges finds direct edges senior->junior where junior is also
// reachable from senior through some other junior — the hierarchy
// version of duplicate assignments, safe to delete without changing
// any effective permission set.
func (h *Hierarchy) RedundantEdges() []RedundantEdge {
	n := h.ds.NumRoles()
	reach := h.transitiveClosure(n)
	var out []RedundantEdge
	for si, set := range h.juniors {
		for ji := range set {
			for mid := range set {
				if mid == ji {
					continue
				}
				if _, ok := reach[mid][ji]; ok {
					out = append(out, RedundantEdge{
						Senior: h.ds.Role(si),
						Junior: h.ds.Role(ji),
					})
					break
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Senior != out[j].Senior {
			return out[i].Senior < out[j].Senior
		}
		return out[i].Junior < out[j].Junior
	})
	return out
}
