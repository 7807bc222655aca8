package rolediet

import (
	"fmt"

	"repro/internal/matrix"
)

// CooccurrenceMatrix materialises the paper's matrix C for a small set
// of roles (§III-C): C[i][j] = g(i,j), the number of user co-occurrences
// between roles i and j, for i ≠ j; C[i][i] = |Rⁱ|, the role's norm.
//
// This is the didactic O(r²) form used in the worked example and the
// unit tests; the production path in Run never builds it, which is
// the subject of the co-occurrence ablation benchmark.
func CooccurrenceMatrix(rows *matrix.CSR) [][]int {
	n := rows.Rows()
	c := make([][]int, n)
	for i := range c {
		c[i] = make([]int, n)
		c[i][i] = rows.RowSum(i)
	}
	// mark[u] is 1 while u is a column of role i, so g(i, j) is a sum
	// over role j's columns.
	mark := make([]int, rows.Cols())
	for i := 0; i < n; i++ {
		for _, u := range rows.RowCols(i) {
			mark[u] = 1
		}
		for j := i + 1; j < n; j++ {
			g := 0
			for _, u := range rows.RowCols(j) {
				g += mark[u]
			}
			c[i][j] = g
			c[j][i] = g
		}
		for _, u := range rows.RowCols(i) {
			mark[u] = 0
		}
	}
	return c
}

// Indicator evaluates the paper's indicator function I(i,j) on a
// co-occurrence matrix: 1 iff |Rⁱ| = g(i,j) = |Rʲ| with i ≠ j, meaning
// the two roles can be combined because they contain exactly the same
// users.
func Indicator(c [][]int, i, j int) (int, error) {
	n := len(c)
	if i < 0 || i >= n || j < 0 || j >= n {
		return 0, fmt.Errorf("rolediet: indicator index (%d,%d) outside %dx%d matrix", i, j, n, n)
	}
	if i == j {
		return 0, nil
	}
	if c[i][i] == c[i][j] && c[i][j] == c[j][j] {
		return 1, nil
	}
	return 0, nil
}

// GroupsFromIndicator derives the exact role groups from a co-occurrence
// matrix by evaluating the indicator over all pairs — the literal
// formulation from the paper, used as an oracle in tests.
func GroupsFromIndicator(c [][]int) [][]int {
	n := len(c)
	uf := newUnionFind(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ind, _ := Indicator(c, i, j); ind == 1 {
				uf.union(i, j)
			}
		}
	}
	byRoot := make(map[int][]int)
	for i := 0; i < n; i++ {
		byRoot[uf.find(i)] = append(byRoot[uf.find(i)], i)
	}
	var groups [][]int
	for _, g := range byRoot {
		if len(g) >= 2 {
			groups = append(groups, g)
		}
	}
	sortGroups(groups)
	return groups
}
