package optimize

import (
	"fmt"

	"repro/internal/rbac"
)

// Apply replays a plan on a copy of the dataset and returns the result.
// Plans are self-contained (mine-roleset actions embed the full mined
// role definitions), so a plan decoded from JSON replays without
// re-running any analysis, and replaying the plan Run produced yields a
// dataset identical to Result.Optimized: drops and merges go through
// the editor the planner made them with. The input is never modified.
func Apply(d *rbac.Dataset, p *Plan) (*rbac.Dataset, error) {
	ed := newEditor(d.Clone())
	for ai, a := range p.Actions {
		var err error
		switch a.Kind {
		case KindDropRole, KindDropRedundant:
			_, err = ed.remove(a.Role)
		case KindMergeRoles:
			_, err = ed.merge(a)
		case KindMineRoleset:
			// The mined set replaces every role, the marked ones too.
			if err = applyMined(ed.d, a.MinedRoles); err == nil {
				ed = newEditor(ed.d)
			}
		default:
			err = fmt.Errorf("unknown action kind %q", a.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("optimize: action %d (%s): %w", ai, a.Kind, err)
		}
	}
	if err := ed.flush(); err != nil {
		return nil, err
	}
	return ed.d, nil
}

// editor makes a plan's drops and merges on a dataset, for the planner
// and for Apply alike. It only marks the roles they delete; flush
// deletes every marked role with one RemoveRoles. A role counts as
// deleted from the moment it is marked, so an action that names it again
// fails, and the result and the errors are those of deleting each role
// when its action runs.
type editor struct {
	d    *rbac.Dataset
	gone []bool        // by role index; a marked role keeps its index
	ids  []rbac.RoleID // the marked roles
}

// newEditor returns an editor of d with no role marked.
func newEditor(d *rbac.Dataset) *editor {
	return &editor{d: d, gone: make([]bool, d.NumRoles())}
}

// find returns the index of a role that exists and is not marked.
func (e *editor) find(id rbac.RoleID) (int, error) {
	ri, ok := e.d.RoleIndex(id)
	if !ok || e.gone[ri] {
		return 0, fmt.Errorf("%w: %q", rbac.ErrUnknownRole, id)
	}
	return ri, nil
}

// remove marks a role deleted and returns its index.
func (e *editor) remove(id rbac.RoleID) (int, error) {
	ri, err := e.find(id)
	if err == nil {
		e.mark(ri)
	}
	return ri, err
}

// mark marks the role at index ri, one find returned, deleted.
func (e *editor) mark(ri int) {
	e.gone[ri] = true
	e.ids = append(e.ids, e.d.Role(ri))
}

// merge folds the action's removed roles into its keeper along its side
// and marks them deleted. It returns the merge's change in direct
// assignment edges: what the keeper gains, minus the removed roles'
// edges.
func (e *editor) merge(a Action) (int, error) {
	if _, err := e.find(a.Keep); err != nil {
		return 0, fmt.Errorf("keep role: %w", err)
	}
	foldUsers := a.Side == "permissions" || a.Side == "both"
	foldPerms := a.Side == "users" || a.Side == "both"
	if !foldUsers && !foldPerms {
		return 0, fmt.Errorf("unknown merge side %q", a.Side)
	}
	delta := 0
	for _, victim := range a.Remove {
		ri, err := e.remove(victim)
		if err != nil {
			return 0, err
		}
		added, err := e.d.FoldRole(a.Keep, victim, foldUsers, foldPerms)
		if err != nil {
			return 0, err
		}
		delta += added - edges(e.d, ri)
	}
	return delta, nil
}

// flush deletes the marked roles.
func (e *editor) flush() error {
	if err := e.d.RemoveRoles(e.ids); err != nil {
		return err
	}
	e.gone, e.ids = e.gone[:e.d.NumRoles()], nil
	clear(e.gone)
	return nil
}

// applyMined replaces the entire role set with the embedded mined
// decomposition. Users and permissions are untouched.
func applyMined(d *rbac.Dataset, roles []MinedRole) error {
	if err := d.RemoveRoles(d.Roles()); err != nil {
		return err
	}
	for _, mr := range roles {
		if err := d.AddRole(mr.ID); err != nil {
			return err
		}
		for _, p := range mr.Permissions {
			if err := d.AssignPermission(mr.ID, p); err != nil {
				return err
			}
		}
		for _, u := range mr.Users {
			if err := d.AssignUser(mr.ID, u); err != nil {
				return err
			}
		}
	}
	return nil
}
