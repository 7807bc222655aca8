package testkit

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/cluster/rolediet"
)

// metamorphicCorpora is the subset of the sweep the property tests run
// over: one corpus per regime keeps each property test well under a
// second while still covering exact, similar, noisy and degenerate
// inputs.
func metamorphicCorpora() []Corpus {
	all := Corpora(false)
	picked := []Corpus{all[0], all[2], all[8], all[14], all[19]}
	picked = append(picked, all[len(all)-4:]...) // the edge corpora
	return picked
}

// exactBackends filters the registry down to the implementations that
// must reproduce the oracle partition bit for bit.
func exactBackends() []Backend {
	var out []Backend
	for _, b := range Backends() {
		if b.Exact {
			out = append(out, b)
		}
	}
	return out
}

// permuteRows returns rows shuffled by a seeded permutation plus the
// permutation itself (perm[newIndex] = oldIndex).
func permuteRows(rows []*bitvec.Vector, seed int64) ([]*bitvec.Vector, []int) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(rows))
	out := make([]*bitvec.Vector, len(rows))
	for ni, oi := range perm {
		out[ni] = rows[oi]
	}
	return out, perm
}

// mapGroups rewrites group member indices through perm (new → old) and
// renormalises, undoing a row permutation.
func mapGroups(groups [][]int, perm []int) [][]int {
	out := make([][]int, len(groups))
	for gi, g := range groups {
		m := make([]int, len(g))
		for i, idx := range g {
			m[i] = perm[idx]
		}
		out[gi] = m
	}
	return Normalize(out)
}

// permuteCols rebuilds every row with its columns shuffled by one
// shared seeded permutation. Hamming distances are column-order
// independent, so the partition must not change.
func permuteCols(rows []*bitvec.Vector, seed int64) []*bitvec.Vector {
	if len(rows) == 0 {
		return nil
	}
	w := rows[0].Len()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(w)
	out := make([]*bitvec.Vector, len(rows))
	for i, r := range rows {
		v := bitvec.New(w)
		r.ForEach(func(j int) bool {
			v.Set(perm[j])
			return true
		})
		out[i] = v
	}
	return out
}

// TestRowPermutationInvariance: shuffling the input rows must not change
// the partition an exact backend finds, once indices are mapped back.
func TestRowPermutationInvariance(t *testing.T) {
	ctx := context.Background()
	for _, c := range metamorphicCorpora() {
		rows, err := c.Rows()
		if err != nil {
			t.Fatal(err)
		}
		shuffled, perm := permuteRows(rows, 99)
		for _, b := range exactBackends() {
			base, err := b.Run(ctx, rows, c.Threshold)
			if err != nil {
				t.Fatalf("%s on [%s]: %v", b.Name, c, err)
			}
			got, err := b.Run(ctx, shuffled, c.Threshold)
			if err != nil {
				t.Fatalf("%s on shuffled [%s]: %v", b.Name, c, err)
			}
			if unmapped := mapGroups(got, perm); !SamePartition(base, unmapped) {
				t.Errorf("%s on [%s]: row permutation changed partition\n  base:     %s\n  permuted: %s",
					b.Name, c, FormatPartition(base), FormatPartition(unmapped))
			}
		}
	}
}

// TestColumnPermutationInvariance: relabelling users/permissions is
// distance-preserving, so the partition must be identical.
func TestColumnPermutationInvariance(t *testing.T) {
	ctx := context.Background()
	for _, c := range metamorphicCorpora() {
		rows, err := c.Rows()
		if err != nil {
			t.Fatal(err)
		}
		permuted := permuteCols(rows, 17)
		for _, b := range exactBackends() {
			base, err := b.Run(ctx, rows, c.Threshold)
			if err != nil {
				t.Fatalf("%s on [%s]: %v", b.Name, c, err)
			}
			got, err := b.Run(ctx, permuted, c.Threshold)
			if err != nil {
				t.Fatalf("%s on column-permuted [%s]: %v", b.Name, c, err)
			}
			if !SamePartition(base, got) {
				t.Errorf("%s on [%s]: column permutation changed partition\n  base:     %s\n  permuted: %s",
					b.Name, c, FormatPartition(base), FormatPartition(got))
			}
		}
	}
}

// restrictPartition drops member indices >= n and groups that fall
// below two members.
func restrictPartition(groups [][]int, n int) [][]int {
	var out [][]int
	for _, g := range groups {
		var kept []int
		for _, m := range g {
			if m < n {
				kept = append(kept, m)
			}
		}
		if len(kept) >= 2 {
			out = append(out, kept)
		}
	}
	return Normalize(out)
}

// TestDuplicateRowStability: appending an exact copy of an existing row
// must (a) place the copy in the original row's group and (b) leave the
// partition over the original indices unchanged — a duplicate is at
// distance 0 from its source and at the source's distance from
// everything else, so no new connectivity can appear.
func TestDuplicateRowStability(t *testing.T) {
	ctx := context.Background()
	for _, c := range metamorphicCorpora() {
		rows, err := c.Rows()
		if err != nil {
			t.Fatal(err)
		}
		n := len(rows)
		augmented := append(append([]*bitvec.Vector{}, rows...), rows[0].Clone())
		for _, b := range exactBackends() {
			base, err := b.Run(ctx, rows, c.Threshold)
			if err != nil {
				t.Fatalf("%s on [%s]: %v", b.Name, c, err)
			}
			got, err := b.Run(ctx, augmented, c.Threshold)
			if err != nil {
				t.Fatalf("%s on augmented [%s]: %v", b.Name, c, err)
			}
			sameGroup := false
			for _, g := range got {
				has0, hasN := false, false
				for _, m := range g {
					has0 = has0 || m == 0
					hasN = hasN || m == n
				}
				if has0 && hasN {
					sameGroup = true
				}
			}
			if !sameGroup {
				t.Errorf("%s on [%s]: duplicate of row 0 not grouped with it: %s",
					b.Name, c, FormatPartition(got))
			}
			if restricted := restrictPartition(got, n); !SamePartition(base, restricted) {
				t.Errorf("%s on [%s]: duplicate row changed the original partition\n  base:       %s\n  restricted: %s",
					b.Name, c, FormatPartition(base), FormatPartition(restricted))
			}
		}
	}
}

// isRefinement reports whether every group of fine is contained in a
// single group of coarse.
func isRefinement(fine, coarse [][]int) bool {
	groupOf := map[int]int{}
	for gi, g := range coarse {
		for _, m := range g {
			groupOf[m] = gi
		}
	}
	for _, g := range fine {
		want, ok := groupOf[g[0]]
		if !ok {
			return false
		}
		for _, m := range g[1:] {
			if gi, ok := groupOf[m]; !ok || gi != want {
				return false
			}
		}
	}
	return true
}

// TestThresholdMonotonicity: the "Hamming <= k" graph is a subgraph of
// the "Hamming <= k+1" graph, so the partition at k must refine the
// partition at k+1 for every exact backend (and the oracle).
func TestThresholdMonotonicity(t *testing.T) {
	ctx := context.Background()
	for _, c := range metamorphicCorpora() {
		rows, err := c.Rows()
		if err != nil {
			t.Fatal(err)
		}
		backends := append(exactBackends(), Backend{
			Name:  "oracle",
			Exact: true,
			Run: func(_ context.Context, rows []*bitvec.Vector, k int) ([][]int, error) {
				return Oracle(rows, k), nil
			},
		})
		for _, b := range backends {
			atK, err := b.Run(ctx, rows, c.Threshold)
			if err != nil {
				t.Fatalf("%s on [%s]: %v", b.Name, c, err)
			}
			atK1, err := b.Run(ctx, rows, c.Threshold+1)
			if err != nil {
				t.Fatalf("%s on [%s] at k+1: %v", b.Name, c, err)
			}
			if !isRefinement(atK, atK1) {
				t.Errorf("%s on [%s]: partition at k=%d does not refine k=%d\n  k:   %s\n  k+1: %s",
					b.Name, c, c.Threshold, c.Threshold+1, FormatPartition(atK), FormatPartition(atK1))
			}
		}
	}
}

// TestSequentialParallelEquivalence: the parallel rolediet fan-out must
// be invisible in the result for any worker count.
func TestSequentialParallelEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, c := range metamorphicCorpora() {
		rows, err := c.Rows()
		if err != nil {
			t.Fatal(err)
		}
		serial, err := runRoleDiet(ctx, rows, rolediet.Options{Threshold: c.Threshold})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			par, err := runRoleDiet(ctx, rows, rolediet.Options{Threshold: c.Threshold, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d on [%s]: %v", workers, c, err)
			}
			if !SamePartition(Normalize(serial.Groups), Normalize(par.Groups)) {
				t.Errorf("workers=%d on [%s]: parallel partition differs\n  serial:   %s\n  parallel: %s",
					workers, c, FormatPartition(serial.Groups), FormatPartition(par.Groups))
			}
		}
	}
}

// TestDenseCSREquivalence: Run over the sparse rows must agree with
// GroupsMat, the arena lane the end-to-end benchmark replays, on the
// same rows.
func TestDenseCSREquivalence(t *testing.T) {
	ctx := context.Background()
	for _, c := range metamorphicCorpora() {
		rows, err := c.Rows()
		if err != nil {
			t.Fatal(err)
		}
		m, err := bitmat.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		opts := rolediet.Options{Threshold: c.Threshold}
		dense, err := rolediet.GroupsMat(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := runRoleDiet(ctx, rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !SamePartition(Normalize(dense.Groups), Normalize(sparse.Groups)) {
			t.Errorf("[%s]: dense and sparse partitions differ\n  dense:  %s\n  sparse: %s",
				c, FormatPartition(dense.Groups), FormatPartition(sparse.Groups))
		}
	}
}

// TestZeroRowsAcrossBackends hand-builds a matrix with several all-zero
// rows — a regime the generator cannot produce (it draws distinct rows)
// but production data can (disconnected roles). All-zero rows are
// mutually identical, invisible to inverted indexes, and must still
// group under every backend.
func TestZeroRowsAcrossBackends(t *testing.T) {
	ctx := context.Background()
	const w = 32
	rows := []*bitvec.Vector{
		bitvec.New(w), // zero
		bitvec.FromIndices(w, []int{1, 5, 9}),
		bitvec.New(w), // zero
		bitvec.FromIndices(w, []int{1, 5, 9}),
		bitvec.FromIndices(w, []int{2}),
		bitvec.New(w), // zero
		bitvec.FromIndices(w, []int{30}),
	}
	for _, threshold := range []int{0, 1, 2} {
		oracle := Oracle(rows, threshold)
		for _, b := range Backends() {
			if detail := CheckBackend(ctx, b, rows, threshold, oracle); detail != "" {
				t.Errorf("%s at k=%d on zero-row matrix: %s", b.Name, threshold, detail)
			}
		}
	}
}
