// Package testkit is the differential-correctness harness for the
// class-4/5 group detectors.
//
// The paper's central claim (§III-B, §IV) is that the Role Diet
// algorithm, DBSCAN and HNSW find the *same* same/similar-role groups at
// very different costs. This package turns that claim into enforced
// tooling: a brute-force O(r²) pairwise oracle computes the ground-truth
// partition for any row set and threshold, a backend registry runs every
// clustering implementation over seeded corpora from internal/gen, and
// the results are compared — exact backends (rolediet and dbscan, serial
// and parallel) must reproduce the oracle partition bit for bit, approximate
// backends (hnsw, bitlsh) must stay above documented recall floors and
// may never invent a pair the oracle does not have.
//
// When a comparison fails, the harness prints the corpus seed and
// parameters so the run is reproducible, then shrinks the counterexample
// matrix with a delta-debugging pass and dumps it as JSON under
// testdata/failures/ for offline replay (see shrink.go and
// testdata/README.md).
package testkit

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitvec"
)

// Oracle computes the exact same/similar-role partition by brute force:
// every one of the r·(r-1)/2 role pairs is tested with the true Hamming
// distance, pairs within the threshold are chained with union-find, and
// connected components with at least two members become groups. This is
// the O(r²) reference all backends are measured against — deliberately
// free of inverted indexes, hash buckets, norm analysis or any other
// shortcut the production implementations use.
//
// The group contract matches the backends: members ascend, groups are
// ordered by smallest member.
func Oracle(rows []*bitvec.Vector, threshold int) [][]int {
	n := len(rows)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rows[i].HammingAtMost(rows[j], threshold) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[rj] = ri
				}
			}
		}
	}
	byRoot := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	var groups [][]int
	for _, g := range byRoot {
		if len(g) >= 2 {
			groups = append(groups, g)
		}
	}
	return Normalize(groups)
}

// Normalize sorts each group's members ascending and orders groups by
// their smallest member, the canonical form shared by every backend.
func Normalize(groups [][]int) [][]int {
	for _, g := range groups {
		sort.Ints(g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}

// SamePartition reports whether two normalized group lists are equal.
func SamePartition(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for gi := range a {
		if len(a[gi]) != len(b[gi]) {
			return false
		}
		for i := range a[gi] {
			if a[gi][i] != b[gi][i] {
				return false
			}
		}
	}
	return true
}

// FormatPartition renders a group list compactly for failure messages,
// e.g. "{0 3 7} {1 2}".
func FormatPartition(groups [][]int) string {
	if len(groups) == 0 {
		return "(no groups)"
	}
	var sb strings.Builder
	for gi, g := range groups {
		if gi > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte('{')
		for i, m := range g {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", m)
		}
		sb.WriteByte('}')
	}
	return sb.String()
}

// WithinGroupPairs expands a group list into its set of unordered
// within-group pairs — the unit recall is measured over, matching the
// pair-level recall of results/recall.txt.
func WithinGroupPairs(groups [][]int) map[[2]int]struct{} {
	pairs := make(map[[2]int]struct{})
	for _, g := range groups {
		for ai := 0; ai < len(g); ai++ {
			for bi := ai + 1; bi < len(g); bi++ {
				pairs[[2]int{g[ai], g[bi]}] = struct{}{}
			}
		}
	}
	return pairs
}

// PairStats compares a backend partition against the oracle partition at
// the pair level. Recall is the fraction of oracle within-group pairs the
// backend also placed in one group (1 when the oracle has none).
// FalsePairs counts backend pairs absent from the oracle — for every
// backend in this repository, exact or approximate, that number must be
// zero, because approximate candidate pairs are always verified with the
// true distance before they can join a group.
func PairStats(oracle, got [][]int) (recall float64, falsePairs int) {
	want := WithinGroupPairs(oracle)
	have := WithinGroupPairs(got)
	if len(want) == 0 {
		recall = 1
	} else {
		hit := 0
		for p := range want {
			if _, ok := have[p]; ok {
				hit++
			}
		}
		recall = float64(hit) / float64(len(want))
	}
	for p := range have {
		if _, ok := want[p]; !ok {
			falsePairs++
		}
	}
	return recall, falsePairs
}
