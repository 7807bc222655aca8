package dbscan

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

// TestPruneNormBoundary constructs the corpora where the norm bound is
// least forgiving: pairs whose norm gap equals eps exactly. Pruning is
// only allowed for ||a|-|b|| strictly greater than eps — a pair at the
// boundary can still be at distance exactly eps (subset rows), so
// pruning it would drop a true neighbour.
func TestPruneNormBoundary(t *testing.T) {
	const width = 64
	cases := []struct {
		name string
		rows [][]int // set bit positions per row
		eps  float64
		want [][]int // expected groups (ascending members)
	}{
		{
			// b is a superset of a with exactly eps extra bits:
			// ||a|-|b|| == eps and Hamming == eps. Must group.
			name: "subset-at-boundary",
			rows: [][]int{{0, 1}, {0, 1, 2}, {40, 41, 42, 43, 44, 45}},
			eps:  1,
			want: [][]int{{0, 1}},
		},
		{
			// c has the same norm gap 1 from a but is disjoint from it:
			// the norm bound alone would admit it, the popcount must
			// reject it. Only the subset pair groups.
			name: "norm-bound-admits-popcount-rejects",
			rows: [][]int{{0, 1}, {0, 1, 2}, {50, 51, 52}},
			eps:  1,
			want: [][]int{{0, 1}},
		},
		{
			// Chain a ⊂ b ⊂ c with per-step distance 2 == eps; DBSCAN
			// connectivity must pull all three into one cluster even
			// though d(a,c) = 4 > eps.
			name: "boundary-chain",
			rows: [][]int{{0, 1}, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5}, {60}},
			eps:  2,
			want: [][]int{{0, 1, 2}},
		},
		{
			// eps 0: only identical rows group; equal-norm distinct rows
			// (norm gap 0 == eps) must be rejected by the popcount.
			name: "exact-zero-eps",
			rows: [][]int{{3, 4}, {3, 4}, {5, 6}, {7}},
			eps:  0,
			want: [][]int{{0, 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			points := make([]*bitvec.Vector, len(tc.rows))
			for i, cols := range tc.rows {
				points[i] = bitvec.FromIndices(width, cols)
			}
			for name, workers := range map[string]int{"serial": 1, "parallel": 4} {
				res, err := run(points, Config{Eps: tc.eps, MinPts: 2, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := res.Groups()
				if len(got) != len(tc.want) {
					t.Fatalf("%s: groups = %v, want %v", name, got, tc.want)
				}
				for g := range got {
					if len(got[g]) != len(tc.want[g]) {
						t.Fatalf("%s: groups = %v, want %v", name, got, tc.want)
					}
					for x := range got[g] {
						if got[g][x] != tc.want[g][x] {
							t.Fatalf("%s: groups = %v, want %v", name, got, tc.want)
						}
					}
				}
			}
		})
	}
}

// TestPrunedMatchesUnprunedSweep cross-checks the arena path against
// the unpruned scan over seeded random corpora: RunFloats evaluates
// every pair's Hamming distance coordinate by coordinate (no prune, no
// arena), so any label divergence convicts the pruning/tiling fast
// path. Corpora are clustered so many pairs sit at or near the norm
// boundary.
func TestPrunedMatchesUnprunedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		n := 40 + rng.Intn(80)
		width := 30 + rng.Intn(200)
		points := make([]*bitvec.Vector, n)
		for i := range points {
			v := bitvec.New(width)
			// Half the rows derive from a small set of templates with
			// few flips, so subsets/supersets at small distances abound.
			if i%2 == 0 || i < 4 {
				for j := 0; j < width; j++ {
					if rng.Float64() < 0.2 {
						v.Set(j)
					}
				}
			} else {
				base := points[rng.Intn(i)]
				for _, j := range base.Indices() {
					v.Set(j)
				}
				for f := rng.Intn(3); f > 0; f-- {
					j := rng.Intn(width)
					if v.Get(j) {
						v.Clear(j)
					} else {
						v.Set(j)
					}
				}
			}
			points[i] = v
		}
		floats := make([][]float64, n)
		for i, p := range points {
			floats[i] = p.Floats()
		}
		for _, eps := range []float64{0, 1, 1 + 1e-9, 2, 3.7, 10} {
			pruned, err := run(points, Config{Eps: eps, MinPts: 2})
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := RunFloats(context.Background(), floats, Config{Eps: eps, MinPts: 2})
			if err != nil {
				t.Fatal(err)
			}
			if pruned.NumClusters != legacy.NumClusters {
				t.Fatalf("trial %d eps=%v: %d clusters pruned vs %d legacy", trial, eps, pruned.NumClusters, legacy.NumClusters)
			}
			for i := range pruned.Labels {
				if pruned.Labels[i] != legacy.Labels[i] {
					t.Fatalf("trial %d eps=%v: label[%d] = %d pruned vs %d legacy", trial, eps, i, pruned.Labels[i], legacy.Labels[i])
				}
			}
			par, err := run(points, Config{Eps: eps, MinPts: 2, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := range par.Labels {
				if par.Labels[i] != legacy.Labels[i] {
					t.Fatalf("trial %d eps=%v: parallel label[%d] = %d vs %d legacy", trial, eps, i, par.Labels[i], legacy.Labels[i])
				}
			}
		}
	}
}
