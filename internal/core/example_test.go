package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rbac"
)

// ExampleAnalyze runs the full five-detector framework over the paper's
// Figure 1 dataset.
func ExampleAnalyze() {
	ds := rbac.Figure1()
	rep, err := core.Analyze(ds, core.Options{SimilarThreshold: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("standalone permissions:", rep.StandalonePermissions)
	fmt.Println("roles without users:", rep.RolesWithoutUsers)
	for _, g := range rep.SameUserGroups {
		fmt.Println("same users:", g.Roles)
	}
	for _, g := range rep.SamePermissionGroups {
		fmt.Println("same permissions:", g.Roles)
	}
	// Output:
	// standalone permissions: [P01]
	// roles without users: [R03]
	// same users: [R02 R04]
	// same permissions: [R04 R05]
}

// ExampleFindRoleGroups groups raw assignment rows directly, without a
// dataset, using the paper's Role Diet algorithm.
func ExampleFindRoleGroups() {
	rows := [][]int32{
		{0, 1},
		{2},
		{0, 1}, // duplicate of row 0
	}
	groups, err := core.FindRoleGroups(context.Background(), 4, rows, core.GroupOptions{Threshold: 0})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(groups)
	// Output:
	// [[0 2]]
}

// ExampleFindRoleGroups_similar finds roles within one differing user.
func ExampleFindRoleGroups_similar() {
	rows := [][]int32{
		{0, 1, 2},
		{0, 1, 2, 3}, // one extra user
		{5, 6, 7},    // far away
	}
	groups, err := core.FindRoleGroups(context.Background(), 8, rows, core.GroupOptions{Threshold: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(groups)
	// Output:
	// [[0 1]]
}
