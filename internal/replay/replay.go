// Package replay defines a JSONL event-log format for RBAC mutations
// and a replayer that drives a dataset through it.
//
// The paper's operating model is periodic batch audits; real IAM
// platforms, though, emit change events continuously. An event log
// bridges the two: exports can be reconciled into a log (Reconcile),
// replayed onto a dataset snapshot (Replayer), and audited at any
// point in the stream — with a mutation session (internal/session)
// keeping the class-4 view current between full audits.
package replay

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/rbac"
)

// Op enumerates event kinds.
type Op string

// The event kinds.
const (
	OpAddUser          Op = "add-user"
	OpRemoveUser       Op = "remove-user"
	OpAddRole          Op = "add-role"
	OpRemoveRole       Op = "remove-role"
	OpAddPermission    Op = "add-permission"
	OpRemovePermission Op = "remove-permission"
	OpAssignUser       Op = "assign-user"
	OpRevokeUser       Op = "revoke-user"
	OpAssignPermission Op = "assign-permission"
	OpRevokePermission Op = "revoke-permission"
)

// Event is one mutation. Exactly the fields the op needs are set.
type Event struct {
	Op         Op                `json:"op"`
	User       rbac.UserID       `json:"user,omitempty"`
	Role       rbac.RoleID       `json:"role,omitempty"`
	Permission rbac.PermissionID `json:"permission,omitempty"`
	// Seq is an optional monotone sequence number for log correlation.
	Seq int64 `json:"seq,omitempty"`
}

// Validate checks the event's field shape.
func (e Event) Validate() error {
	switch e.Op {
	case OpAddUser, OpRemoveUser:
		if e.User == "" {
			return fmt.Errorf("replay: %s without user", e.Op)
		}
	case OpAddRole, OpRemoveRole:
		if e.Role == "" {
			return fmt.Errorf("replay: %s without role", e.Op)
		}
	case OpAddPermission, OpRemovePermission:
		if e.Permission == "" {
			return fmt.Errorf("replay: %s without permission", e.Op)
		}
	case OpAssignUser, OpRevokeUser:
		if e.Role == "" || e.User == "" {
			return fmt.Errorf("replay: %s needs role and user", e.Op)
		}
	case OpAssignPermission, OpRevokePermission:
		if e.Role == "" || e.Permission == "" {
			return fmt.Errorf("replay: %s needs role and permission", e.Op)
		}
	default:
		return fmt.Errorf("replay: unknown op %q", e.Op)
	}
	return nil
}

// Apply executes the event against a dataset.
func Apply(d *rbac.Dataset, e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	switch e.Op {
	case OpAddUser:
		return d.AddUser(e.User)
	case OpRemoveUser:
		return d.RemoveUser(e.User)
	case OpAddRole:
		return d.AddRole(e.Role)
	case OpRemoveRole:
		return d.RemoveRole(e.Role)
	case OpAddPermission:
		return d.AddPermission(e.Permission)
	case OpRemovePermission:
		return d.RemovePermission(e.Permission)
	case OpAssignUser:
		return d.AssignUser(e.Role, e.User)
	case OpRevokeUser:
		return d.RevokeUser(e.Role, e.User)
	case OpAssignPermission:
		return d.AssignPermission(e.Role, e.Permission)
	case OpRevokePermission:
		return d.RevokePermission(e.Role, e.Permission)
	default:
		return fmt.Errorf("replay: unknown op %q", e.Op)
	}
}

// WriteLog encodes events as JSON lines.
func WriteLog(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i, e := range events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// ReadLog decodes a JSONL event stream, validating every event. It is
// bounded by the package default Limits (1 MiB lines, 1,000,000
// events); use ReadLogLimited to pick different bounds. A stream
// exceeding them fails with an error wrapping ErrLogTooLarge instead
// of allocating without bound.
func ReadLog(r io.Reader) ([]Event, error) {
	return ReadLogLimited(r, Limits{})
}

// ErrStopped is returned by Replayer.Run when a checkpoint callback
// asks to stop.
var ErrStopped = errors.New("replay: stopped by checkpoint")

// Replayer drives a dataset through an event stream with periodic
// checkpoints.
type Replayer struct {
	// Dataset is mutated in place as events apply.
	Dataset *rbac.Dataset
	// CheckpointEvery invokes Checkpoint after that many applied events
	// (0 disables checkpoints).
	CheckpointEvery int
	// Checkpoint, when set, observes the dataset mid-stream. Returning
	// false stops the replay with ErrStopped.
	Checkpoint func(applied int, d *rbac.Dataset) bool
}

// Run applies all events in order. It stops at the first failing event
// and reports its index.
func (r *Replayer) Run(events []Event) (applied int, err error) {
	for i, e := range events {
		if err := Apply(r.Dataset, e); err != nil {
			return i, fmt.Errorf("replay: event %d (%s): %w", i, e.Op, err)
		}
		applied = i + 1
		if r.CheckpointEvery > 0 && r.Checkpoint != nil && applied%r.CheckpointEvery == 0 {
			if !r.Checkpoint(applied, r.Dataset) {
				return applied, ErrStopped
			}
		}
	}
	return applied, nil
}

// Reconcile computes an event log that transforms the before snapshot
// into the after snapshot: removals first (edges implied by removed
// entities are dropped automatically), then additions, then edge
// changes on surviving roles. Replaying the result onto a clone of
// before yields a dataset with identical stats and assignments.
func Reconcile(before, after *rbac.Dataset) []Event {
	var events []Event

	// Entity removals.
	for _, r := range before.Roles() {
		if _, ok := after.RoleIndex(r); !ok {
			events = append(events, Event{Op: OpRemoveRole, Role: r})
		}
	}
	for _, u := range before.Users() {
		if _, ok := after.UserIndex(u); !ok {
			events = append(events, Event{Op: OpRemoveUser, User: u})
		}
	}
	for _, p := range before.Permissions() {
		if _, ok := after.PermissionIndex(p); !ok {
			events = append(events, Event{Op: OpRemovePermission, Permission: p})
		}
	}

	// Entity additions.
	for _, u := range after.Users() {
		if _, ok := before.UserIndex(u); !ok {
			events = append(events, Event{Op: OpAddUser, User: u})
		}
	}
	for _, p := range after.Permissions() {
		if _, ok := before.PermissionIndex(p); !ok {
			events = append(events, Event{Op: OpAddPermission, Permission: p})
		}
	}
	for _, r := range after.Roles() {
		if _, ok := before.RoleIndex(r); !ok {
			events = append(events, Event{Op: OpAddRole, Role: r})
		}
	}

	// Edge reconciliation per surviving-or-new role.
	for _, r := range after.Roles() {
		wantUsers, _ := after.RoleUsers(r)
		var haveUsers []rbac.UserID
		if _, existed := before.RoleIndex(r); existed {
			haveUsers, _ = before.RoleUsers(r)
		}
		addU, delU := diffIDLists(haveUsers, wantUsers)
		for _, u := range delU {
			// Skip users that were removed entirely; their edges died
			// with them.
			if _, ok := after.UserIndex(u); ok {
				events = append(events, Event{Op: OpRevokeUser, Role: r, User: u})
			}
		}
		for _, u := range addU {
			events = append(events, Event{Op: OpAssignUser, Role: r, User: u})
		}

		wantPerms, _ := after.RolePermissions(r)
		var havePerms []rbac.PermissionID
		if _, existed := before.RoleIndex(r); existed {
			havePerms, _ = before.RolePermissions(r)
		}
		addP, delP := diffPermLists(havePerms, wantPerms)
		for _, p := range delP {
			if _, ok := after.PermissionIndex(p); ok {
				events = append(events, Event{Op: OpRevokePermission, Role: r, Permission: p})
			}
		}
		for _, p := range addP {
			events = append(events, Event{Op: OpAssignPermission, Role: r, Permission: p})
		}
	}

	for i := range events {
		events[i].Seq = int64(i + 1)
	}
	return events
}

// diffIDLists diffs two sorted user lists (added, removed).
func diffIDLists(have, want []rbac.UserID) (added, removed []rbac.UserID) {
	i, j := 0, 0
	for i < len(have) && j < len(want) {
		switch {
		case have[i] == want[j]:
			i++
			j++
		case have[i] < want[j]:
			removed = append(removed, have[i])
			i++
		default:
			added = append(added, want[j])
			j++
		}
	}
	removed = append(removed, have[i:]...)
	added = append(added, want[j:]...)
	return added, removed
}

func diffPermLists(have, want []rbac.PermissionID) (added, removed []rbac.PermissionID) {
	i, j := 0, 0
	for i < len(have) && j < len(want) {
		switch {
		case have[i] == want[j]:
			i++
			j++
		case have[i] < want[j]:
			removed = append(removed, have[i])
			i++
		default:
			added = append(added, want[j])
			j++
		}
	}
	removed = append(removed, have[i:]...)
	added = append(added, want[j:]...)
	return added, removed
}
