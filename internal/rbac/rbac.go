// Package rbac models Role-Based Access Control data as the paper
// represents it: a tripartite graph of users, roles and permissions with
// user–role and role–permission assignment edges (Figure 1), convertible
// to the RUAM and RPAM bit matrices that the detection framework and the
// clustering methods consume.
package rbac

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/matrix"
)

// Entity identifiers. Distinct types keep user, role and permission
// namespaces from being mixed up at compile time.
type (
	// UserID identifies a user.
	UserID string
	// RoleID identifies a role.
	RoleID string
	// PermissionID identifies a permission (entitlement).
	PermissionID string
)

// Sentinel errors for entity lookups and duplicate registration.
var (
	ErrUnknownUser       = errors.New("rbac: unknown user")
	ErrUnknownRole       = errors.New("rbac: unknown role")
	ErrUnknownPermission = errors.New("rbac: unknown permission")
	ErrDuplicate         = errors.New("rbac: duplicate entity")
)

// Dataset is an in-memory RBAC database: the three node sets plus the
// two edge sets. Iteration orders are insertion orders, so matrix row
// and column indices are stable and reproducible.
type Dataset struct {
	users []UserID
	roles []RoleID
	perms []PermissionID

	userIdx map[UserID]int
	roleIdx map[RoleID]int
	permIdx map[PermissionID]int

	// roleUsers[r] and rolePerms[r] are the assignment sets of role r,
	// keyed by entity index.
	roleUsers []map[int]struct{}
	rolePerms []map[int]struct{}
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{
		userIdx: make(map[UserID]int),
		roleIdx: make(map[RoleID]int),
		permIdx: make(map[PermissionID]int),
	}
}

// AddUser registers a user. Re-adding an existing id is an ErrDuplicate.
func (d *Dataset) AddUser(id UserID) error {
	if _, ok := d.userIdx[id]; ok {
		return fmt.Errorf("%w: user %q", ErrDuplicate, id)
	}
	d.userIdx[id] = len(d.users)
	d.users = append(d.users, id)
	return nil
}

// AddRole registers a role.
func (d *Dataset) AddRole(id RoleID) error {
	if _, ok := d.roleIdx[id]; ok {
		return fmt.Errorf("%w: role %q", ErrDuplicate, id)
	}
	d.roleIdx[id] = len(d.roles)
	d.roles = append(d.roles, id)
	d.roleUsers = append(d.roleUsers, make(map[int]struct{}))
	d.rolePerms = append(d.rolePerms, make(map[int]struct{}))
	return nil
}

// AddPermission registers a permission.
func (d *Dataset) AddPermission(id PermissionID) error {
	if _, ok := d.permIdx[id]; ok {
		return fmt.Errorf("%w: permission %q", ErrDuplicate, id)
	}
	d.permIdx[id] = len(d.perms)
	d.perms = append(d.perms, id)
	return nil
}

// EnsureUser registers the user if absent and returns its index.
func (d *Dataset) EnsureUser(id UserID) int {
	if i, ok := d.userIdx[id]; ok {
		return i
	}
	_ = d.AddUser(id)
	return d.userIdx[id]
}

// EnsureRole registers the role if absent and returns its index.
func (d *Dataset) EnsureRole(id RoleID) int {
	if i, ok := d.roleIdx[id]; ok {
		return i
	}
	_ = d.AddRole(id)
	return d.roleIdx[id]
}

// EnsurePermission registers the permission if absent and returns its
// index.
func (d *Dataset) EnsurePermission(id PermissionID) int {
	if i, ok := d.permIdx[id]; ok {
		return i
	}
	_ = d.AddPermission(id)
	return d.permIdx[id]
}

// AssignUser adds a user–role edge. Both entities must already exist.
// Assigning twice is a no-op.
func (d *Dataset) AssignUser(role RoleID, user UserID) error {
	ri, ok := d.roleIdx[role]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	ui, ok := d.userIdx[user]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	d.roleUsers[ri][ui] = struct{}{}
	return nil
}

// AssignPermission adds a role–permission edge.
func (d *Dataset) AssignPermission(role RoleID, perm PermissionID) error {
	ri, ok := d.roleIdx[role]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	pi, ok := d.permIdx[perm]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPermission, perm)
	}
	d.rolePerms[ri][pi] = struct{}{}
	return nil
}

// RevokeUser removes a user–role edge if present.
func (d *Dataset) RevokeUser(role RoleID, user UserID) error {
	ri, ok := d.roleIdx[role]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	ui, ok := d.userIdx[user]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	delete(d.roleUsers[ri], ui)
	return nil
}

// RevokePermission removes a role–permission edge if present.
func (d *Dataset) RevokePermission(role RoleID, perm PermissionID) error {
	ri, ok := d.roleIdx[role]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	pi, ok := d.permIdx[perm]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPermission, perm)
	}
	delete(d.rolePerms[ri], pi)
	return nil
}

// RemoveRole deletes a role and all its edges. Indices of later roles
// shift down by one, exactly like deleting a matrix row.
func (d *Dataset) RemoveRole(role RoleID) error {
	ri, ok := d.roleIdx[role]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	d.roles = append(d.roles[:ri], d.roles[ri+1:]...)
	d.roleUsers = append(d.roleUsers[:ri], d.roleUsers[ri+1:]...)
	d.rolePerms = append(d.rolePerms[:ri], d.rolePerms[ri+1:]...)
	delete(d.roleIdx, role)
	for i := ri; i < len(d.roles); i++ {
		d.roleIdx[d.roles[i]] = i
	}
	return nil
}

// RemoveRoles deletes every listed role and its edges in one pass,
// leaving the dataset exactly as the same RemoveRole calls in sequence
// would: the survivors keep their relative order and are re-indexed
// densely. An unknown or repeated id is an ErrUnknownRole and leaves
// the dataset unchanged.
func (d *Dataset) RemoveRoles(ids []RoleID) error {
	gone := make([]bool, len(d.roles))
	for _, id := range ids {
		ri, ok := d.roleIdx[id]
		if !ok || gone[ri] {
			return fmt.Errorf("%w: %q", ErrUnknownRole, id)
		}
		gone[ri] = true
	}
	k := 0
	for ri, id := range d.roles {
		if gone[ri] {
			delete(d.roleIdx, id)
			continue
		}
		d.roles[k], d.roleUsers[k], d.rolePerms[k] = id, d.roleUsers[ri], d.rolePerms[ri]
		d.roleIdx[id] = k
		k++
	}
	clear(d.roleUsers[k:])
	clear(d.rolePerms[k:])
	d.roles = d.roles[:k]
	d.roleUsers = d.roleUsers[:k]
	d.rolePerms = d.rolePerms[:k]
	return nil
}

// NumUsers returns the user count.
func (d *Dataset) NumUsers() int { return len(d.users) }

// NumRoles returns the role count.
func (d *Dataset) NumRoles() int { return len(d.roles) }

// NumPermissions returns the permission count.
func (d *Dataset) NumPermissions() int { return len(d.perms) }

// Users returns the user ids in index order (copy).
func (d *Dataset) Users() []UserID {
	out := make([]UserID, len(d.users))
	copy(out, d.users)
	return out
}

// Roles returns the role ids in index order (copy).
func (d *Dataset) Roles() []RoleID {
	out := make([]RoleID, len(d.roles))
	copy(out, d.roles)
	return out
}

// Permissions returns the permission ids in index order (copy).
func (d *Dataset) Permissions() []PermissionID {
	out := make([]PermissionID, len(d.perms))
	copy(out, d.perms)
	return out
}

// User returns the user id at index i.
func (d *Dataset) User(i int) UserID { return d.users[i] }

// Role returns the role id at index i.
func (d *Dataset) Role(i int) RoleID { return d.roles[i] }

// Permission returns the permission id at index i.
func (d *Dataset) Permission(i int) PermissionID { return d.perms[i] }

// RoleIndex returns the index of a role id.
func (d *Dataset) RoleIndex(id RoleID) (int, bool) {
	i, ok := d.roleIdx[id]
	return i, ok
}

// UserIndex returns the index of a user id.
func (d *Dataset) UserIndex(id UserID) (int, bool) {
	i, ok := d.userIdx[id]
	return i, ok
}

// PermissionIndex returns the index of a permission id.
func (d *Dataset) PermissionIndex(id PermissionID) (int, bool) {
	i, ok := d.permIdx[id]
	return i, ok
}

// HasAssignment reports whether the user–role edge exists.
func (d *Dataset) HasAssignment(role RoleID, user UserID) bool {
	ri, ok := d.roleIdx[role]
	if !ok {
		return false
	}
	ui, ok := d.userIdx[user]
	if !ok {
		return false
	}
	_, ok = d.roleUsers[ri][ui]
	return ok
}

// HasPermission reports whether the role–permission edge exists.
func (d *Dataset) HasPermission(role RoleID, perm PermissionID) bool {
	ri, ok := d.roleIdx[role]
	if !ok {
		return false
	}
	pi, ok := d.permIdx[perm]
	if !ok {
		return false
	}
	_, ok = d.rolePerms[ri][pi]
	return ok
}

// RoleUsers returns the sorted user ids assigned to a role.
func (d *Dataset) RoleUsers(role RoleID) ([]UserID, error) {
	ri, ok := d.roleIdx[role]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	out := make([]UserID, 0, len(d.roleUsers[ri]))
	for ui := range d.roleUsers[ri] {
		out = append(out, d.users[ui])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// RolePermissions returns the sorted permission ids assigned to a role.
func (d *Dataset) RolePermissions(role RoleID) ([]PermissionID, error) {
	ri, ok := d.roleIdx[role]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	out := make([]PermissionID, 0, len(d.rolePerms[ri]))
	for pi := range d.rolePerms[ri] {
		out = append(out, d.perms[pi])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ForEachRoleUser calls fn with the index of every user assigned to
// role index ri, in unspecified order, stopping early when fn returns
// false. It is the allocation-free, index-space counterpart of
// RoleUsers for hot paths that must not round-trip through sorted id
// slices.
func (d *Dataset) ForEachRoleUser(ri int, fn func(ui int) bool) {
	for ui := range d.roleUsers[ri] {
		if !fn(ui) {
			return
		}
	}
}

// ForEachRolePermission calls fn with the index of every permission
// assigned to role index ri, in unspecified order, stopping early when
// fn returns false.
func (d *Dataset) ForEachRolePermission(ri int, fn func(pi int) bool) {
	for pi := range d.rolePerms[ri] {
		if !fn(pi) {
			return
		}
	}
}

// RoleHasUser reports whether user index ui is assigned to role index
// ri: the index-space counterpart of HasAssignment.
func (d *Dataset) RoleHasUser(ri, ui int) bool {
	_, ok := d.roleUsers[ri][ui]
	return ok
}

// RoleHasPermission reports whether role index ri grants permission
// index pi: the index-space counterpart of HasPermission.
func (d *Dataset) RoleHasPermission(ri, pi int) bool {
	_, ok := d.rolePerms[ri][pi]
	return ok
}

// NumRoleUsers returns the number of users assigned to role index ri
// (RUAM row ri's sum).
func (d *Dataset) NumRoleUsers(ri int) int { return len(d.roleUsers[ri]) }

// NumRolePermissions returns the number of permissions role index ri
// grants (RPAM row ri's sum).
func (d *Dataset) NumRolePermissions(ri int) int { return len(d.rolePerms[ri]) }

// NumUserAssignments returns the total number of user–role edges.
func (d *Dataset) NumUserAssignments() int {
	n := 0
	for _, s := range d.roleUsers {
		n += len(s)
	}
	return n
}

// NumPermissionAssignments returns the total number of role–permission
// edges.
func (d *Dataset) NumPermissionAssignments() int {
	n := 0
	for _, s := range d.rolePerms {
		n += len(s)
	}
	return n
}

// RUAM builds the Role-User Assignment Matrix: one row per role (in
// index order), one column per user.
func (d *Dataset) RUAM() *matrix.BitMatrix {
	m := matrix.NewBitMatrix(len(d.roles), len(d.users))
	for ri, set := range d.roleUsers {
		for ui := range set {
			m.Set(ri, ui)
		}
	}
	return m
}

// RPAM builds the Role-Permission Assignment Matrix: one row per role,
// one column per permission.
func (d *Dataset) RPAM() *matrix.BitMatrix {
	m := matrix.NewBitMatrix(len(d.roles), len(d.perms))
	for ri, set := range d.rolePerms {
		for pi := range set {
			m.Set(ri, pi)
		}
	}
	return m
}

// RolesByUser inverts the user–role edges: entry ui lists the indices
// of the roles assigned to user index ui, in role index order.
func (d *Dataset) RolesByUser() [][]int32 {
	out := make([][]int32, len(d.users))
	for ri, set := range d.roleUsers {
		for ui := range set {
			out[ui] = append(out[ui], int32(ri))
		}
	}
	return out
}

// EffectivePermissions returns, for every user index, the set of
// permission indices reachable through any of the user's roles. It is
// the semantic ground truth the consolidation planner must preserve.
func (d *Dataset) EffectivePermissions() []map[int]struct{} {
	out := make([]map[int]struct{}, len(d.users))
	for i := range out {
		out[i] = make(map[int]struct{})
	}
	for ri := range d.roles {
		for ui := range d.roleUsers[ri] {
			for pi := range d.rolePerms[ri] {
				out[ui][pi] = struct{}{}
			}
		}
	}
	return out
}

// Stats summarises dataset shape for reports and logs.
type Stats struct {
	Users                 int `json:"users"`
	Roles                 int `json:"roles"`
	Permissions           int `json:"permissions"`
	UserAssignments       int `json:"userAssignments"`
	PermissionAssignments int `json:"permissionAssignments"`
}

// Stats returns the dataset shape.
func (d *Dataset) Stats() Stats {
	return Stats{
		Users:                 d.NumUsers(),
		Roles:                 d.NumRoles(),
		Permissions:           d.NumPermissions(),
		UserAssignments:       d.NumUserAssignments(),
		PermissionAssignments: d.NumPermissionAssignments(),
	}
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := NewDataset()
	for _, u := range d.users {
		_ = out.AddUser(u)
	}
	for _, p := range d.perms {
		_ = out.AddPermission(p)
	}
	for _, r := range d.roles {
		_ = out.AddRole(r)
	}
	for ri, set := range d.roleUsers {
		for ui := range set {
			out.roleUsers[ri][ui] = struct{}{}
		}
	}
	for ri, set := range d.rolePerms {
		for pi := range set {
			out.rolePerms[ri][pi] = struct{}{}
		}
	}
	return out
}

// Validate checks internal consistency (index maps in sync with slices,
// assignment indices in range). A dataset mutated only through the
// public API always validates; the check guards hand-built test data
// and deserialised inputs.
func (d *Dataset) Validate() error {
	if len(d.users) != len(d.userIdx) {
		return fmt.Errorf("rbac: user index map has %d entries for %d users", len(d.userIdx), len(d.users))
	}
	if len(d.roles) != len(d.roleIdx) {
		return fmt.Errorf("rbac: role index map has %d entries for %d roles", len(d.roleIdx), len(d.roles))
	}
	if len(d.perms) != len(d.permIdx) {
		return fmt.Errorf("rbac: permission index map has %d entries for %d permissions", len(d.permIdx), len(d.perms))
	}
	if len(d.roleUsers) != len(d.roles) || len(d.rolePerms) != len(d.roles) {
		return fmt.Errorf("rbac: assignment tables sized %d/%d for %d roles",
			len(d.roleUsers), len(d.rolePerms), len(d.roles))
	}
	for id, i := range d.roleIdx {
		if i < 0 || i >= len(d.roles) || d.roles[i] != id {
			return fmt.Errorf("rbac: role index map entry %q -> %d inconsistent", id, i)
		}
	}
	for ri, set := range d.roleUsers {
		for ui := range set {
			if ui < 0 || ui >= len(d.users) {
				return fmt.Errorf("rbac: role %q assigned out-of-range user index %d", d.roles[ri], ui)
			}
		}
	}
	for ri, set := range d.rolePerms {
		for pi := range set {
			if pi < 0 || pi >= len(d.perms) {
				return fmt.Errorf("rbac: role %q assigned out-of-range permission index %d", d.roles[ri], pi)
			}
		}
	}
	return nil
}
