package gen_test

import (
	"fmt"

	"repro/internal/gen"
)

// ExampleMatrix generates the paper's synthetic workload and shows the
// planted ground truth.
func ExampleMatrix() {
	g, err := gen.Matrix(gen.MatrixParams{
		Rows:              100,
		Cols:              50,
		ClusterProportion: 0.2,
		MaxClusterSize:    10,
		Seed:              1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	inClusters := 0
	for _, grp := range g.Planted {
		inClusters += len(grp)
	}
	fmt.Println("rows:", g.Rows.Rows())
	fmt.Println("roles planted in clusters:", inClusters)
	// Output:
	// rows: 100
	// roles planted in clusters: 20
}

// ExampleOrg generates a miniature of the paper's organisation-scale
// dataset with known ground truth.
func ExampleOrg() {
	ds, gt, err := gen.Org(gen.DefaultOrgParams().Scaled(1000))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	s := ds.Stats()
	fmt.Println("roles:", s.Roles)
	fmt.Println("planted same-user groups:", gt.SameUserGroups)
	// Output:
	// roles: 50
	// planted same-user groups: 4
}
