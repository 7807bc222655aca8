// Package rbac models Role-Based Access Control data as the paper
// represents it: a tripartite graph of users, roles and permissions with
// user–role and role–permission assignment edges (Figure 1), convertible
// to the RUAM and RPAM bit matrices that the detection framework and the
// clustering methods consume.
package rbac

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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
//
// Each node set is a slice of IDs, whose positions are the matrix
// indices, plus an index from ID to position: an open-addressed table of
// int32 positions into the slice, keyed by a hash seeded at random per
// process (index.go). Clone copies the tables as they are, with no
// rehash. The zero Dataset is empty and ready to use.
//
// The edges are held as the paper's matrix rows: roleUsers[ri] is RUAM
// row ri, the indices of the users assigned to role ri, and
// rolePerms[ri] is RPAM row ri. Every row is strictly ascending and
// inside its column range; Validate checks this invariant.
type Dataset struct {
	users []UserID
	roles []RoleID
	perms []PermissionID

	userIdx index[UserID]
	roleIdx index[RoleID]
	permIdx index[PermissionID]

	roleUsers [][]int32
	rolePerms [][]int32
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset { return &Dataset{} }

// AddUser registers a user. Re-adding an existing id is an ErrDuplicate.
func (d *Dataset) AddUser(id UserID) error {
	if _, added := d.userIdx.add(&d.users, id); !added {
		return fmt.Errorf("%w: user %q", ErrDuplicate, id)
	}
	return nil
}

// AddRole registers a role.
func (d *Dataset) AddRole(id RoleID) error {
	if _, added := d.addRole(id); !added {
		return fmt.Errorf("%w: role %q", ErrDuplicate, id)
	}
	return nil
}

// addRole registers the role with empty rows if absent and returns its
// index.
func (d *Dataset) addRole(id RoleID) (int, bool) {
	ri, added := d.roleIdx.add(&d.roles, id)
	if added {
		d.roleUsers = push(d.roleUsers, nil)
		d.rolePerms = push(d.rolePerms, nil)
	}
	return ri, added
}

// AddPermission registers a permission.
func (d *Dataset) AddPermission(id PermissionID) error {
	if _, added := d.permIdx.add(&d.perms, id); !added {
		return fmt.Errorf("%w: permission %q", ErrDuplicate, id)
	}
	return nil
}

// EnsureUser registers the user if absent and returns its index.
func (d *Dataset) EnsureUser(id UserID) int {
	ui, _ := d.userIdx.add(&d.users, id)
	return ui
}

// EnsureRole registers the role if absent and returns its index.
func (d *Dataset) EnsureRole(id RoleID) int {
	ri, _ := d.addRole(id)
	return ri
}

// EnsurePermission registers the permission if absent and returns its
// index.
func (d *Dataset) EnsurePermission(id PermissionID) int {
	pi, _ := d.permIdx.add(&d.perms, id)
	return pi
}

// userEdge resolves the endpoints of a user–role edge to indices.
func (d *Dataset) userEdge(role RoleID, user UserID) (ri, ui int, err error) {
	if ri, _ = d.roleIdx.find(d.roles, role); ri < 0 {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	if ui, _ = d.userIdx.find(d.users, user); ui < 0 {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	return ri, ui, nil
}

// permEdge resolves the endpoints of a role–permission edge to indices.
func (d *Dataset) permEdge(role RoleID, perm PermissionID) (ri, pi int, err error) {
	if ri, _ = d.roleIdx.find(d.roles, role); ri < 0 {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	if pi, _ = d.permIdx.find(d.perms, perm); pi < 0 {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownPermission, perm)
	}
	return ri, pi, nil
}

// AssignUser adds a user–role edge. Both entities must already exist.
// Assigning twice is a no-op. The edge is a sorted insert into the
// role's row, O(row degree): the rows of gen.Org hold at most 6 users
// at both paper/10 and paper/1.
func (d *Dataset) AssignUser(role RoleID, user UserID) error {
	ri, ui, err := d.userEdge(role, user)
	if err == nil {
		d.roleUsers[ri] = insert(d.roleUsers[ri], ui)
	}
	return err
}

// AssignPermission adds a role–permission edge, a sorted insert like
// AssignUser.
func (d *Dataset) AssignPermission(role RoleID, perm PermissionID) error {
	ri, pi, err := d.permEdge(role, perm)
	if err == nil {
		d.rolePerms[ri] = insert(d.rolePerms[ri], pi)
	}
	return err
}

// RevokeUser removes a user–role edge if present.
func (d *Dataset) RevokeUser(role RoleID, user UserID) error {
	ri, ui, err := d.userEdge(role, user)
	if err == nil {
		d.roleUsers[ri] = drop(d.roleUsers[ri], ui)
	}
	return err
}

// RevokePermission removes a role–permission edge if present.
func (d *Dataset) RevokePermission(role RoleID, perm PermissionID) error {
	ri, pi, err := d.permEdge(role, perm)
	if err == nil {
		d.rolePerms[ri] = drop(d.rolePerms[ri], pi)
	}
	return err
}

// insert adds column c to a sorted row unless it is already there.
func insert(row []int32, c int) []int32 {
	if i, ok := slices.BinarySearch(row, int32(c)); !ok {
		return slices.Insert(row, i, int32(c))
	}
	return row
}

// drop removes column c from a sorted row if it is there.
func drop(row []int32, c int) []int32 {
	if i, ok := slices.BinarySearch(row, int32(c)); ok {
		return slices.Delete(row, i, i+1)
	}
	return row
}

// holds reports whether a sorted row contains column c.
func holds(row []int32, c int) bool {
	_, ok := slices.BinarySearch(row, int32(c))
	return ok
}

// sortRows restores the row invariant after raw appends: each row is
// sorted once and its repeats dropped, O(e log e) in the edge count
// whatever order the edges arrived in.
func sortRows(rows [][]int32) {
	for ri, row := range rows {
		slices.Sort(row)
		rows[ri] = slices.Compact(row)
	}
}

// RemoveRole deletes a role and all its edges. Indices of later roles
// shift down by one, exactly like deleting a matrix row.
func (d *Dataset) RemoveRole(role RoleID) error {
	ri, _ := d.roleIdx.find(d.roles, role)
	if ri < 0 {
		return fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	d.roleIdx.remove(d.roles, ri)
	d.roles = slices.Delete(d.roles, ri, ri+1)
	d.roleUsers = slices.Delete(d.roleUsers, ri, ri+1)
	d.rolePerms = slices.Delete(d.rolePerms, ri, ri+1)
	return nil
}

// RemoveRoles deletes every listed role and its edges in one pass,
// leaving the dataset exactly as the same RemoveRole calls in sequence
// would: the survivors keep their relative order and are re-indexed
// densely. An unknown or repeated id is an ErrUnknownRole and leaves
// the dataset unchanged.
func (d *Dataset) RemoveRoles(ids []RoleID) error {
	// next[ri] is role ri's index once the removal is done, -1 if gone.
	next := make([]int32, len(d.roles))
	for _, id := range ids {
		ri, _ := d.roleIdx.find(d.roles, id)
		if ri < 0 || next[ri] < 0 {
			return fmt.Errorf("%w: %q", ErrUnknownRole, id)
		}
		next[ri] = -1
	}
	k := 0
	for ri := range next {
		if next[ri] < 0 {
			d.roleIdx.unlink(d.roles, ri)
			continue
		}
		next[ri] = int32(k)
		k++
	}
	d.roleIdx.renumber(next)
	for ri, to := range next {
		if to >= 0 {
			d.roles[to], d.roleUsers[to], d.rolePerms[to] = d.roles[ri], d.roleUsers[ri], d.rolePerms[ri]
		}
	}
	clear(d.roles[k:])
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
	i, _ := d.roleIdx.find(d.roles, id)
	return i, i >= 0
}

// UserIndex returns the index of a user id.
func (d *Dataset) UserIndex(id UserID) (int, bool) {
	i, _ := d.userIdx.find(d.users, id)
	return i, i >= 0
}

// PermissionIndex returns the index of a permission id.
func (d *Dataset) PermissionIndex(id PermissionID) (int, bool) {
	i, _ := d.permIdx.find(d.perms, id)
	return i, i >= 0
}

// HasAssignment reports whether the user–role edge exists.
func (d *Dataset) HasAssignment(role RoleID, user UserID) bool {
	ri, ui, err := d.userEdge(role, user)
	return err == nil && holds(d.roleUsers[ri], ui)
}

// HasPermission reports whether the role–permission edge exists.
func (d *Dataset) HasPermission(role RoleID, perm PermissionID) bool {
	ri, pi, err := d.permEdge(role, perm)
	return err == nil && holds(d.rolePerms[ri], pi)
}

// RoleUsers returns the sorted user ids assigned to a role.
func (d *Dataset) RoleUsers(role RoleID) ([]UserID, error) {
	ri, ok := d.RoleIndex(role)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	out := make([]UserID, 0, len(d.roleUsers[ri]))
	for _, ui := range d.roleUsers[ri] {
		out = append(out, d.users[ui])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// RolePermissions returns the sorted permission ids assigned to a role.
func (d *Dataset) RolePermissions(role RoleID) ([]PermissionID, error) {
	ri, ok := d.RoleIndex(role)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	out := make([]PermissionID, 0, len(d.rolePerms[ri]))
	for _, pi := range d.rolePerms[ri] {
		out = append(out, d.perms[pi])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// RoleUserRow returns the indices of the users assigned to role index
// ri in ascending order: RUAM row ri. Like matrix.CSR.RowCols, the
// slice aliases the dataset's storage; it is read-only, and valid only
// until the dataset next changes.
func (d *Dataset) RoleUserRow(ri int) []int32 { return d.roleUsers[ri] }

// RolePermissionRow returns the indices of the permissions role index
// ri grants in ascending order: RPAM row ri, read-only like RoleUserRow.
func (d *Dataset) RolePermissionRow(ri int) []int32 { return d.rolePerms[ri] }

// RoleHasUser reports whether user index ui is assigned to role index
// ri: the index-space counterpart of HasAssignment.
func (d *Dataset) RoleHasUser(ri, ui int) bool { return holds(d.roleUsers[ri], ui) }

// RoleHasPermission reports whether role index ri grants permission
// index pi: the index-space counterpart of HasPermission.
func (d *Dataset) RoleHasPermission(ri, pi int) bool { return holds(d.rolePerms[ri], pi) }

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
	for ri, row := range d.roleUsers {
		for _, ui := range row {
			m.Set(ri, int(ui))
		}
	}
	return m
}

// RPAM builds the Role-Permission Assignment Matrix: one row per role,
// one column per permission.
func (d *Dataset) RPAM() *matrix.BitMatrix {
	m := matrix.NewBitMatrix(len(d.roles), len(d.perms))
	for ri, row := range d.rolePerms {
		for _, pi := range row {
			m.Set(ri, int(pi))
		}
	}
	return m
}

// RolesByUser inverts the user–role edges: entry ui lists the indices
// of the roles assigned to user index ui, in role index order.
func (d *Dataset) RolesByUser() [][]int32 {
	out := make([][]int32, len(d.users))
	for ri, row := range d.roleUsers {
		for _, ui := range row {
			out[ui] = append(out[ui], int32(ri))
		}
	}
	return out
}

// EffectivePermissions returns, for every user index, the strictly
// ascending indices of the permissions reachable through any of the
// user's roles. It is the semantic ground truth the consolidation
// planner must preserve. The rows share one backing array.
func (d *Dataset) EffectivePermissions() [][]int32 {
	ends := make([]int, len(d.users)+1)
	for ri, row := range d.roleUsers {
		for _, ui := range row {
			ends[ui+1] += len(d.rolePerms[ri])
		}
	}
	for ui := range d.users {
		ends[ui+1] += ends[ui]
	}
	buf := make([]int32, ends[len(d.users)])
	fill := slices.Clone(ends[:len(d.users)]) // next write position per user
	for ri, row := range d.roleUsers {
		for _, ui := range row {
			fill[ui] += copy(buf[fill[ui]:], d.rolePerms[ri])
		}
	}
	out := make([][]int32, len(d.users))
	for ui := range out {
		row := buf[ends[ui]:ends[ui+1]]
		slices.Sort(row)
		row = slices.Compact(row)
		out[ui] = row[:len(row):len(row)]
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

// Clone returns a deep copy of the dataset. The ID indexes are copied
// slot for slot: no ID is hashed again, and the copy shares no storage
// with d.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{
		users:     slices.Clone(d.users),
		roles:     slices.Clone(d.roles),
		perms:     slices.Clone(d.perms),
		userIdx:   slices.Clone(d.userIdx),
		roleIdx:   slices.Clone(d.roleIdx),
		permIdx:   slices.Clone(d.permIdx),
		roleUsers: cloneRows(d.roleUsers),
		rolePerms: cloneRows(d.rolePerms),
	}
}

// cloneRows copies rows into one backing array. Each copy's capacity
// ends at its own length, so growing one row reallocates it rather than
// writing over the next.
func cloneRows(rows [][]int32) [][]int32 {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	arena := make([]int32, n)
	out := make([][]int32, len(rows))
	for ri, row := range rows {
		k := copy(arena, row)
		out[ri], arena = arena[:k:k], arena[k:]
	}
	return out
}

// Validate checks internal consistency: each ID index holding exactly
// the positions of its slice, every role at its own position, and every
// assignment row strictly ascending and in range. A dataset mutated
// only through the public API always validates; the check guards
// hand-built test data and deserialised inputs.
func (d *Dataset) Validate() error {
	if err := cmp.Or(d.userIdx.check(d.users, "user"), d.roleIdx.check(d.roles, "role"),
		d.permIdx.check(d.perms, "permission")); err != nil {
		return err
	}
	if len(d.roleUsers) != len(d.roles) || len(d.rolePerms) != len(d.roles) {
		return fmt.Errorf("rbac: assignment tables sized %d/%d for %d roles",
			len(d.roleUsers), len(d.rolePerms), len(d.roles))
	}
	for ri, id := range d.roles {
		if i, _ := d.roleIdx.find(d.roles, id); i != ri {
			return fmt.Errorf("rbac: role index entry %q -> %d inconsistent", id, i)
		}
	}
	if err := d.checkRows(d.roleUsers, len(d.users), "user"); err != nil {
		return err
	}
	return d.checkRows(d.rolePerms, len(d.perms), "permission")
}

// checkRows checks that every row is strictly ascending inside [0, cols).
func (d *Dataset) checkRows(rows [][]int32, cols int, kind string) error {
	for ri, row := range rows {
		for j, c := range row {
			if c < 0 || int(c) >= cols {
				return fmt.Errorf("rbac: role %q assigned out-of-range %s index %d", d.roles[ri], kind, c)
			}
			if j > 0 && c <= row[j-1] {
				return fmt.Errorf("rbac: role %q's %s row is not strictly ascending at index %d", d.roles[ri], kind, c)
			}
		}
	}
	return nil
}
