package rolediet

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/matrix"
)

// toCSR lists each test row's set columns as the CSR form Run takes.
func toCSR(rows []*bitvec.Vector) *matrix.CSR {
	cols := 0
	if len(rows) > 0 {
		cols = rows[0].Len()
	}
	lists := make([][]int, len(rows))
	for i, r := range rows {
		lists[i] = r.Indices()
	}
	return matrix.CSRFromLists(cols, lists)
}

func TestGroupsCSRPaperExample(t *testing.T) {
	res, err := Run(context.Background(), toCSR(paperRUAM()), Options{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, [][]int{{1, 3}}) {
		t.Fatalf("Groups = %v, want [[1 3]]", res.Groups)
	}
}

func TestGroupsCSRValidation(t *testing.T) {
	if _, err := Run(context.Background(), toCSR(paperRUAM()), Options{Threshold: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestGroupsCSREmpty(t *testing.T) {
	res, err := Run(context.Background(), matrix.NewCSR(0, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("Groups = %v", res.Groups)
	}
}

func TestGroupsCSREmptyRowsGroup(t *testing.T) {
	// Two all-zero rows are identical and must group, exactly like the
	// arena lane.
	c := matrix.NewCSR(3, 4)
	c.ColIdx = []int{1}
	c.RowPtr = []int{0, 0, 1, 1} // row 1 has column 1; rows 0 and 2 empty
	res, err := Run(context.Background(), c, Options{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, [][]int{{0, 2}}) {
		t.Fatalf("Groups = %v, want [[0 2]]", res.Groups)
	}
}

func TestPropertyCSRMatchesDenseGroups(t *testing.T) {
	// Run over the CSR and GroupsMat over the arena must agree exactly on
	// every input and threshold, through both the exact and general paths.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 2+r.Intn(40), 1+r.Intn(16), 0.3)
		plantDuplicates(r, rows, r.Intn(8))
		csr := toCSR(rows)
		for _, k := range []int{0, 1, 2} {
			for _, disable := range []bool{false, true} {
				opts := Options{Threshold: k, DisableExactHashFastPath: disable}
				dense, err := arenaGroups(rows, opts)
				if err != nil {
					return false
				}
				sparse, err := Run(context.Background(), csr, opts)
				if err != nil {
					return false
				}
				if !groupsEqual(dense.Groups, sparse.Groups) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupsCSRSimilarThreshold(t *testing.T) {
	rows := paperRUAM()
	res, err := Run(context.Background(), toCSR(rows), Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := arenaGroups(rows, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !groupsEqual(res.Groups, dense.Groups) {
		t.Fatalf("sparse %v != dense %v", res.Groups, dense.Groups)
	}
}
