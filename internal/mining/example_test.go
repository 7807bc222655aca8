package mining_test

import (
	"fmt"
	"slices"

	"repro/internal/mining"
	"repro/internal/rbac"
)

// Example mines a minimal role set for the paper's Figure 1 dataset
// from its effective user-permission assignment.
func Example() {
	src := rbac.Figure1()
	upa := mining.UPAFromDataset(src)
	res, err := mining.Mine(upa, mining.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("existing roles:", src.NumRoles())
	fmt.Println("mined roles:", res.NumRoles())
	fmt.Println("lossless:", slices.EqualFunc(res.Reconstruct(), upa, slices.Equal[[]int32]))
	// Output:
	// existing roles: 5
	// mined roles: 2
	// lossless: true
}
