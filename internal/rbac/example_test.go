package rbac_test

import (
	"fmt"

	"repro/internal/rbac"
)

// Example builds a small dataset through the public API and derives the
// two assignment matrices the detection framework consumes.
func Example() {
	d := rbac.NewDataset()
	for _, u := range []rbac.UserID{"alice", "bob"} {
		if err := d.AddUser(u); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	if err := d.AddRole("viewer"); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := d.AddPermission("read"); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := d.AssignUser("viewer", "alice"); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := d.AssignPermission("viewer", "read"); err != nil {
		fmt.Println("error:", err)
		return
	}

	ruam := d.RUAM()
	rpam := d.RPAM()
	fmt.Printf("RUAM %dx%d: %s\n", d.NumRoles(), d.NumUsers(), ruam.Row(0))
	fmt.Printf("RPAM %dx%d: %s\n", d.NumRoles(), d.NumPermissions(), rpam.Row(0))
	fmt.Printf("stats: %+v\n", d.Stats())
	// Output:
	// RUAM 1x2: 10
	// RPAM 1x1: 1
	// stats: {Users:2 Roles:1 Permissions:1 UserAssignments:1 PermissionAssignments:1}
}

// ExampleFigure1 exposes the paper's running example.
func ExampleFigure1() {
	d := rbac.Figure1()
	fmt.Printf("%d users, %d roles, %d permissions\n",
		d.NumUsers(), d.NumRoles(), d.NumPermissions())
	users, _ := d.RoleUsers("R04")
	fmt.Println("R04 users:", users)
	// Output:
	// 4 users, 5 roles, 6 permissions
	// R04 users: [U01 U02]
}
