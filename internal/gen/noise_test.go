package gen

import (
	"slices"
	"testing"
)

// TestBackgroundRowsDistinctFromNoisyMembers: the generator registers
// noisy cluster members in its dedup set, so a background ("distinct")
// row can never coincide with any planted row — with or without
// SimilarNoise. Differential and recall tests rely on this to treat
// Planted as the complete exact-duplicate ground truth.
func TestBackgroundRowsDistinctFromNoisyMembers(t *testing.T) {
	for _, noise := range []int{0, 1, 3} {
		g, err := Matrix(MatrixParams{
			Rows: 200, Cols: 32, ClusterProportion: 0.4,
			MaxClusterSize: 8, Density: 0.2, SimilarNoise: noise, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		planted := make(map[int]bool)
		for _, cluster := range g.Planted {
			for _, i := range cluster {
				planted[i] = true
			}
		}
		for i := 0; i < g.Rows.Rows(); i++ {
			if planted[i] {
				continue
			}
			ri := g.Rows.RowCols(i)
			for j := 0; j < g.Rows.Rows(); j++ {
				if i == j || !planted[j] {
					continue
				}
				if slices.Equal(ri, g.Rows.RowCols(j)) {
					t.Fatalf("noise=%d: background row %d duplicates planted row %d (%v)",
						noise, i, j, ri)
				}
			}
		}
	}
}
