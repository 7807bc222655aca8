package rolediet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestColIndexMatchesPostingLists compares buildColIndex's flat postings
// and offsets with naive per-column posting lists, for one, two and
// four workers: on no rows, on columns no row holds, on a column every
// row holds, and on random rows that emit their columns in shuffled
// order.
func TestColIndexMatchesPostingLists(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	type matrix struct {
		name  string
		width int
		rows  [][]int
	}
	cases := []matrix{
		{"no rows", 6, nil},
		{"no columns set", 5, make([][]int, 7)},
		{"width zero", 0, make([][]int, 3)},
	}
	full := matrix{name: "column 3 in every row", width: 9}
	for i := 0; i < 40; i++ {
		full.rows = append(full.rows, []int{3, 1 + i%2*7})
	}
	cases = append(cases, full)
	for seed := 0; seed < 20; seed++ {
		// Columns 0 and width-1 stay empty; the rest are set at random.
		m := matrix{name: fmt.Sprintf("random %d", seed), width: 2 + r.Intn(40)}
		for i := r.Intn(80); i > 0; i-- {
			var row []int
			for j := 1; j < m.width-1; j++ {
				if r.Float64() < 0.2 {
					row = append(row, j)
				}
			}
			r.Shuffle(len(row), func(a, b int) { row[a], row[b] = row[b], row[a] })
			m.rows = append(m.rows, row)
		}
		cases = append(cases, m)
	}
	for _, m := range cases {
		want := make([][]int32, m.width)
		for i, row := range m.rows {
			for _, j := range row {
				want[j] = append(want[j], int32(i))
			}
		}
		for j := range want {
			slices.Sort(want[j])
		}
		rowCols := func(i int, emit func(col int)) {
			for _, j := range m.rows[i] {
				emit(j)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			flat, start := buildColIndex(len(m.rows), m.width, workers, rowCols)
			if len(start) != m.width+1 || start[0] != 0 || int(start[m.width]) != len(flat) {
				t.Fatalf("%s, %d workers: offsets %v for %d postings", m.name, workers, start, len(flat))
			}
			for j := range want {
				if got := flat[start[j]:start[j+1]]; !slices.Equal(got, want[j]) {
					t.Fatalf("%s, %d workers: column %d holds %v, want %v", m.name, workers, j, got, want[j])
				}
			}
		}
	}
}
