package rbac

import "fmt"

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

// shiftOut deletes column idx from every role's set and renumbers the
// columns above it down by one, in the existing maps. A set's shifted
// keys all leave before any re-enters, so a key never lands on one
// still waiting to move.
func shiftOut(sets []map[int]struct{}, idx int) {
	var buf [64]int
	above := buf[:0]
	for _, set := range sets {
		delete(set, idx)
		above = above[:0]
		for k := range set {
			if k > idx {
				above = append(above, k)
			}
		}
		for _, k := range above {
			delete(set, k)
		}
		for _, k := range above {
			set[k-1] = struct{}{}
		}
	}
}
