package rbac

import (
	"fmt"
	"slices"
)

// RemoveUser deletes a user and every assignment referencing it.
// Indices of later users shift down by one, like deleting a RUAM
// column.
func (d *Dataset) RemoveUser(user UserID) error {
	ui, ok := d.userIdx[user]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	d.users = append(d.users[:ui], d.users[ui+1:]...)
	delete(d.userIdx, user)
	for i := ui; i < len(d.users); i++ {
		d.userIdx[d.users[i]] = i
	}
	shiftOut(d.roleUsers, ui)
	return nil
}

// RemovePermission deletes a permission and every assignment
// referencing it.
func (d *Dataset) RemovePermission(perm PermissionID) error {
	pi, ok := d.permIdx[perm]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPermission, perm)
	}
	d.perms = append(d.perms[:pi], d.perms[pi+1:]...)
	delete(d.permIdx, perm)
	for i := pi; i < len(d.perms); i++ {
		d.permIdx[d.perms[i]] = i
	}
	shiftOut(d.rolePerms, pi)
	return nil
}

// shiftOut deletes column idx from every row and renumbers the
// columns above it down by one. Each row stays sorted: its entries past
// idx all drop by the same one.
func shiftOut(rows [][]int32, idx int) {
	for ri, row := range rows {
		i, ok := slices.BinarySearch(row, int32(idx))
		if ok {
			row = slices.Delete(row, i, i+1)
			rows[ri] = row
		}
		for ; i < len(row); i++ {
			row[i]--
		}
	}
}
