package rbac

import (
	"fmt"
	"slices"
)

// RemoveUser deletes a user and every assignment referencing it.
// Indices of later users shift down by one, like deleting a RUAM
// column.
func (d *Dataset) RemoveUser(user UserID) error {
	ui, _ := d.userIdx.find(d.users, user)
	if ui < 0 {
		return fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	d.userIdx.remove(d.users, ui)
	d.users = slices.Delete(d.users, ui, ui+1)
	shiftOut(d.roleUsers, ui)
	return nil
}

// RemovePermission deletes a permission and every assignment
// referencing it.
func (d *Dataset) RemovePermission(perm PermissionID) error {
	pi, _ := d.permIdx.find(d.perms, perm)
	if pi < 0 {
		return fmt.Errorf("%w: %q", ErrUnknownPermission, perm)
	}
	d.permIdx.remove(d.perms, pi)
	d.perms = slices.Delete(d.perms, pi, pi+1)
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
