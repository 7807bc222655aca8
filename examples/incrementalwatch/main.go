// Incrementalwatch demonstrates keeping the duplicate-role view (the
// class-4 inefficiency) current under live assignment churn, instead of
// re-running the batch framework periodically: a mutation session
// applies each event to its dataset and an O(1) hash update, and group
// queries read straight off its buckets.
//
// The simulation replays a day of IAM events — role creation,
// assignment, revocation — against a department that keeps cloning its
// "viewer" role, and prints the duplicate groups as they form and
// dissolve.
//
// Run with:
//
//	go run ./examples/incrementalwatch
package main

import (
	"fmt"
	"log"

	"repro/internal/rbac"
	"repro/internal/replay"
	"repro/internal/session"
)

// event is one IAM mutation.
type event struct {
	desc string
	e    replay.Event
}

func create(role rbac.RoleID) replay.Event {
	return replay.Event{Op: replay.OpAddRole, Role: role}
}

func assign(role rbac.RoleID, user rbac.UserID) replay.Event {
	return replay.Event{Op: replay.OpAssignUser, Role: role, User: user}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	base := rbac.NewDataset()
	for _, u := range []rbac.UserID{"alice", "bob", "carol"} {
		if err := base.AddUser(u); err != nil {
			return err
		}
	}
	s := session.New("watch", "", base)

	events := []event{
		{"create role viewer", create("viewer")},
		{"assign alice to viewer", assign("viewer", "alice")},
		{"assign bob to viewer", assign("viewer", "bob")},
		{"create role editor", create("editor")},
		{"assign carol to editor", assign("editor", "carol")},
		// A second team recreates viewer under a new name for the same
		// people: a class-4 inefficiency is born.
		{"create role viewer-clone", create("viewer-clone")},
		{"assign alice to viewer-clone", assign("viewer-clone", "alice")},
		{"assign bob to viewer-clone", assign("viewer-clone", "bob")},
		// A migration drifts it apart again...
		{"assign carol to viewer-clone", assign("viewer-clone", "carol")},
		// ...and a revocation re-aligns it.
		{"revoke carol from viewer-clone", replay.Event{Op: replay.OpRevokeUser, Role: "viewer-clone", User: "carol"}},
		// A v2 role duplicates it a second time.
		{"create role viewer-v2", create("viewer-v2")},
		{"assign alice to viewer-v2", assign("viewer-v2", "alice")},
		{"assign bob to viewer-v2", assign("viewer-v2", "bob")},
		// Cleanup removes the first clone.
		{"remove role viewer-clone", replay.Event{Op: replay.OpRemoveRole, Role: "viewer-clone"}},
	}

	var groups [][]rbac.RoleID
	for _, ev := range events {
		if _, err := s.Apply([]replay.Event{ev.e}); err != nil {
			return fmt.Errorf("%s: %w", ev.desc, err)
		}
		groups = s.Audit().SameUserGroups
		fmt.Printf("%-32s -> ", ev.desc)
		if len(groups) == 0 {
			fmt.Println("no duplicate roles")
			continue
		}
		for _, g := range groups {
			fmt.Print(g, " ")
		}
		fmt.Println()
	}

	// Point queries read off the same audit.
	same := 0
	for _, g := range groups {
		for _, r := range g {
			if r == "viewer" {
				same = len(g) - 1
			}
		}
	}
	fmt.Printf("\nroles currently identical to viewer: %d\n", same)
	return nil
}
