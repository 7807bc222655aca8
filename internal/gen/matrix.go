// Package gen generates synthetic RBAC workloads.
//
// matrix.go reproduces the paper's §IV-A generator: a boolean matrix
// resembling a RUAM/RPAM with a configurable number of rows (roles) and
// columns (users/permissions), a proportion of rows that belong to
// planted clusters of identical rows, and a cap on cluster size. The
// evaluation fixes the proportion to 0.2 and the cap to 10.
//
// org.go builds a full organisation-scale rbac.Dataset with ground-truth
// counts for all five inefficiency classes, standing in for the paper's
// private real-world dataset (§IV-B).
package gen

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
)

// MatrixParams parameterises the §IV-A generator.
type MatrixParams struct {
	// Rows is the number of roles (matrix rows).
	Rows int
	// Cols is the number of users or permissions (matrix columns).
	Cols int
	// ClusterProportion is the fraction of rows that belong to planted
	// clusters of identical rows. The paper fixes it to 0.2.
	ClusterProportion float64
	// MaxClusterSize caps the number of identical rows in one cluster
	// (minimum 2). The paper fixes it to 10.
	MaxClusterSize int
	// Density is the probability of a set bit in a base row; defaults
	// to 0.05, giving realistic sparse assignment rows.
	Density float64
	// SimilarNoise, when > 0, flips up to that many random bits in every
	// cluster member after copying the base row, turning exact clusters
	// into similar ones for class-5 experiments.
	SimilarNoise int
	// Seed drives the deterministic RNG; the zero value uses seed 1.
	Seed int64
}

func (p MatrixParams) withDefaults() MatrixParams {
	if p.Density == 0 {
		p.Density = 0.05
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Validate checks the parameters.
func (p MatrixParams) Validate() error {
	if p.Rows < 0 || p.Cols <= 0 {
		return fmt.Errorf("gen: invalid shape %dx%d", p.Rows, p.Cols)
	}
	if p.ClusterProportion < 0 || p.ClusterProportion > 1 {
		return fmt.Errorf("gen: cluster proportion %v outside [0,1]", p.ClusterProportion)
	}
	if p.ClusterProportion > 0 && p.MaxClusterSize < 2 {
		return fmt.Errorf("gen: max cluster size %d < 2", p.MaxClusterSize)
	}
	if p.Density < 0 || p.Density > 1 {
		return fmt.Errorf("gen: density %v outside [0,1]", p.Density)
	}
	if p.SimilarNoise < 0 {
		return fmt.Errorf("gen: negative similar noise %d", p.SimilarNoise)
	}
	return nil
}

// GeneratedMatrix is the generator output.
type GeneratedMatrix struct {
	// Rows holds the generated role rows, shuffled so planted clusters
	// are scattered across the matrix. Each lists its set columns in
	// [0, Cols), strictly ascending: the form rbac.Dataset stores.
	Rows [][]int32
	// Cols is the matrix width (users or permissions).
	Cols int
	// Planted lists the ground-truth clusters as ascending row indices
	// (after shuffling), ordered by smallest member. With SimilarNoise
	// == 0 these are exactly the groups every exact method must find.
	Planted [][]int
}

// Matrix generates a synthetic assignment matrix with planted clusters.
//
// Base rows are drawn at the configured density and re-drawn when they
// repeat a row already drawn, so with SimilarNoise == 0 the planted
// clusters are the *only* groups of identical rows — the detectors'
// output can be compared against Planted exactly.
func Matrix(p MatrixParams) (*GeneratedMatrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))

	clustered := int(p.ClusterProportion * float64(p.Rows))
	if clustered == 1 {
		clustered = 0 // a cluster needs at least two members
	}

	// seen holds every row drawn so far, keyed by its column list.
	seen := make(map[string]struct{}, p.Rows)
	var key []byte
	register := func(cols []int) bool {
		key = key[:0]
		for _, j := range cols {
			key = binary.AppendUvarint(key, uint64(j))
		}
		if _, dup := seen[string(key)]; dup {
			return false
		}
		seen[string(key)] = struct{}{}
		return true
	}
	newDistinctRow := func() []int {
		for {
			var cols []int
			for j := 0; j < p.Cols; j++ {
				if rng.Float64() < p.Density {
					cols = append(cols, j)
				}
			}
			if register(cols) {
				return cols
			}
		}
	}

	rows := make([][]int, 0, p.Rows)
	// clusterOf[i] is the planted cluster id of row i, or -1.
	clusterOf := make([]int, 0, p.Rows)

	// Plant clusters over the first `clustered` rows.
	clusterID := 0
	for remaining := clustered; remaining >= 2; {
		size := 2
		if p.MaxClusterSize > 2 {
			size += rng.Intn(p.MaxClusterSize - 1)
		}
		if size > remaining {
			size = remaining
		}
		base := newDistinctRow()
		for m := 0; m < size; m++ {
			member := base
			if p.SimilarNoise > 0 && m > 0 {
				member = slices.Clone(base)
				for f := rng.Intn(p.SimilarNoise + 1); f > 0; f-- {
					j := rng.Intn(p.Cols)
					member = setTo(member, j, rng.Intn(2) == 1)
				}
				// Register the noisy variant too, so the background rows
				// drawn below can never accidentally duplicate a planted
				// member — without this, ground-truth recall measurements
				// would see phantom groups at SimilarNoise > 0.
				register(member)
			}
			rows = append(rows, member)
			clusterOf = append(clusterOf, clusterID)
		}
		remaining -= size
		clusterID++
	}

	// Fill the rest with rows distinct from everything seen so far.
	for len(rows) < p.Rows {
		rows = append(rows, newDistinctRow())
		clusterOf = append(clusterOf, -1)
	}

	// Shuffle rows (and the cluster map with them).
	rng.Shuffle(len(rows), func(i, j int) {
		rows[i], rows[j] = rows[j], rows[i]
		clusterOf[i], clusterOf[j] = clusterOf[j], clusterOf[i]
	})

	planted := make([][]int, clusterID)
	for i, c := range clusterOf {
		if c >= 0 {
			planted[c] = append(planted[c], i)
		}
	}
	// Members are ascending because we appended in index order; order
	// groups by smallest member for the detectors' output contract.
	sortGroupsByHead(planted)

	return &GeneratedMatrix{Rows: int32Rows(rows), Cols: p.Cols, Planted: planted}, nil
}

// int32Rows copies column lists into rows sharing one backing array.
func int32Rows(lists [][]int) [][]int32 {
	nnz := 0
	for _, l := range lists {
		nnz += len(l)
	}
	flat := make([]int32, 0, nnz)
	rows := make([][]int32, len(lists))
	for i, l := range lists {
		for _, j := range l {
			flat = append(flat, int32(j))
		}
		rows[i] = flat[len(flat)-len(l) : len(flat) : len(flat)]
	}
	return rows
}

// setTo sets (on) or clears column j in the sorted column list cols.
func setTo(cols []int, j int, on bool) []int {
	i, found := slices.BinarySearch(cols, j)
	switch {
	case on && !found:
		return slices.Insert(cols, i, j)
	case !on && found:
		return slices.Delete(cols, i, i+1)
	}
	return cols
}

func sortGroupsByHead(groups [][]int) {
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && len(groups[j]) > 0 && len(groups[j-1]) > 0 &&
			groups[j][0] < groups[j-1][0]; j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}
}
