// Package query answers access-review questions over an RBAC dataset:
// who holds a permission, through which roles, and what a user can do.
//
// The paper motivates inefficiency cleanup with auditing pain — "making
// the management and, critically, auditing those roles a complex and
// prone-to-error process". These are the queries an auditor actually
// runs; they are served from inverted indexes built once per snapshot,
// so each query costs time proportional to its answer.
package query

import (
	"fmt"
	"sort"

	"repro/internal/rbac"
)

// Index is an immutable query index over one dataset snapshot.
type Index struct {
	ds *rbac.Dataset
	// userRoles[u] lists role indices containing user u.
	userRoles [][]int
	// permRoles[p] lists role indices granting permission p.
	permRoles [][]int
}

// NewIndex snapshots the dataset and builds the inverted indexes.
func NewIndex(d *rbac.Dataset) *Index {
	ds := d.Clone()
	idx := &Index{
		ds:        ds,
		userRoles: make([][]int, ds.NumUsers()),
		permRoles: make([][]int, ds.NumPermissions()),
	}
	for ri := 0; ri < ds.NumRoles(); ri++ {
		for _, u := range ds.RoleUserRow(ri) {
			idx.userRoles[u] = append(idx.userRoles[u], ri)
		}
		for _, p := range ds.RolePermissionRow(ri) {
			idx.permRoles[p] = append(idx.permRoles[p], ri)
		}
	}
	return idx
}

// RolesOf returns the roles a user is assigned to, sorted by id.
func (x *Index) RolesOf(user rbac.UserID) ([]rbac.RoleID, error) {
	ui, ok := x.ds.UserIndex(user)
	if !ok {
		return nil, fmt.Errorf("query: %w: %q", rbac.ErrUnknownUser, user)
	}
	out := make([]rbac.RoleID, 0, len(x.userRoles[ui]))
	for _, ri := range x.userRoles[ui] {
		out = append(out, x.ds.Role(ri))
	}
	sortRoles(out)
	return out, nil
}

// RolesGranting returns the roles that grant a permission, sorted.
func (x *Index) RolesGranting(perm rbac.PermissionID) ([]rbac.RoleID, error) {
	pi, ok := x.ds.PermissionIndex(perm)
	if !ok {
		return nil, fmt.Errorf("query: %w: %q", rbac.ErrUnknownPermission, perm)
	}
	out := make([]rbac.RoleID, 0, len(x.permRoles[pi]))
	for _, ri := range x.permRoles[pi] {
		out = append(out, x.ds.Role(ri))
	}
	sortRoles(out)
	return out, nil
}

// PermissionsOf returns a user's effective permissions, sorted.
func (x *Index) PermissionsOf(user rbac.UserID) ([]rbac.PermissionID, error) {
	ui, ok := x.ds.UserIndex(user)
	if !ok {
		return nil, fmt.Errorf("query: %w: %q", rbac.ErrUnknownUser, user)
	}
	seen := make(map[int32]struct{})
	for _, ri := range x.userRoles[ui] {
		for _, p := range x.ds.RolePermissionRow(ri) {
			seen[p] = struct{}{}
		}
	}
	out := make([]rbac.PermissionID, 0, len(seen))
	for p := range seen {
		out = append(out, x.ds.Permission(int(p)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// UsersWith returns the users that effectively hold a permission,
// sorted.
func (x *Index) UsersWith(perm rbac.PermissionID) ([]rbac.UserID, error) {
	pi, ok := x.ds.PermissionIndex(perm)
	if !ok {
		return nil, fmt.Errorf("query: %w: %q", rbac.ErrUnknownPermission, perm)
	}
	seen := make(map[int32]struct{})
	for _, ri := range x.permRoles[pi] {
		for _, u := range x.ds.RoleUserRow(ri) {
			seen[u] = struct{}{}
		}
	}
	out := make([]rbac.UserID, 0, len(seen))
	for u := range seen {
		out = append(out, x.ds.User(int(u)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Grant explains one way a user holds a permission.
type Grant struct {
	// Via is the role that connects the user to the permission.
	Via rbac.RoleID `json:"via"`
}

// Why returns every role through which the user holds the permission —
// the audit trail for one access decision. An empty slice means the
// user does not hold the permission.
func (x *Index) Why(user rbac.UserID, perm rbac.PermissionID) ([]Grant, error) {
	ui, ok := x.ds.UserIndex(user)
	if !ok {
		return nil, fmt.Errorf("query: %w: %q", rbac.ErrUnknownUser, user)
	}
	pi, ok := x.ds.PermissionIndex(perm)
	if !ok {
		return nil, fmt.Errorf("query: %w: %q", rbac.ErrUnknownPermission, perm)
	}
	userSet := make(map[int]struct{}, len(x.userRoles[ui]))
	for _, ri := range x.userRoles[ui] {
		userSet[ri] = struct{}{}
	}
	var out []Grant
	for _, ri := range x.permRoles[pi] {
		if _, ok := userSet[ri]; ok {
			out = append(out, Grant{Via: x.ds.Role(ri)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Via < out[j].Via })
	return out, nil
}

// HasAccess reports whether the user effectively holds the permission.
func (x *Index) HasAccess(user rbac.UserID, perm rbac.PermissionID) (bool, error) {
	grants, err := x.Why(user, perm)
	if err != nil {
		return false, err
	}
	return len(grants) > 0, nil
}

// RedundantGrants finds user-permission pairs granted through more than
// one role — every extra path is one more thing an auditor must reason
// about, and consolidating the duplicate/similar roles behind them is
// exactly what the detection framework proposes. Results are sorted by
// user, then permission.
func (x *Index) RedundantGrants() []RedundantGrant {
	var out []RedundantGrant
	for ui := 0; ui < x.ds.NumUsers(); ui++ {
		// Count grant paths per permission for this user.
		paths := make(map[int]int)
		for _, ri := range x.userRoles[ui] {
			for _, p := range x.ds.RolePermissionRow(ri) {
				paths[int(p)]++
			}
		}
		perms := make([]int, 0, len(paths))
		for p, n := range paths {
			if n >= 2 {
				perms = append(perms, p)
			}
		}
		sort.Ints(perms)
		for _, p := range perms {
			out = append(out, RedundantGrant{
				User:       x.ds.User(ui),
				Permission: x.ds.Permission(p),
				Paths:      paths[p],
			})
		}
	}
	return out
}

// RedundantGrant is a user-permission pair reachable through >= 2 roles.
type RedundantGrant struct {
	User       rbac.UserID       `json:"user"`
	Permission rbac.PermissionID `json:"permission"`
	Paths      int               `json:"paths"`
}

func sortRoles(roles []rbac.RoleID) {
	sort.Slice(roles, func(i, j int) bool { return roles[i] < roles[j] })
}
