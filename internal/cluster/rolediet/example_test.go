package rolediet_test

import (
	"context"
	"fmt"

	"repro/internal/cluster/rolediet"
	"repro/internal/matrix"
)

// Example reproduces the paper's §III-C worked example: the
// co-occurrence matrix C over the Figure 1 RUAM and the single exact
// group it implies.
func Example() {
	// R01={U03}, R02={U01,U02}, R03={}, R04={U01,U02}, R05={U04}.
	ruam := matrix.CSRFromLists(4, [][]int{{2}, {0, 1}, nil, {0, 1}, {3}})
	c := rolediet.CooccurrenceMatrix(ruam)
	for _, row := range c {
		fmt.Println(row)
	}
	res, err := rolediet.Run(context.Background(), ruam, rolediet.Options{Threshold: 0})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("groups:", res.Groups)
	// Output:
	// [1 0 0 0 0]
	// [0 2 0 2 0]
	// [0 0 0 0 0]
	// [0 2 0 2 0]
	// [0 0 0 0 1]
	// groups: [[1 3]]
}

// ExampleRun_threshold finds similar roles: identical up to one
// differing user.
func ExampleRun_threshold() {
	m := matrix.CSRFromLists(6, [][]int{{0, 1, 2}, {0, 1, 2, 3}, {4, 5}})
	res, err := rolediet.Run(context.Background(), m, rolediet.Options{Threshold: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Groups)
	// Output:
	// [[0 1]]
}
