package rolediet

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
)

// widthOf returns the width of equal-width rows, 0 when there are none.
func widthOf(rows []*bitvec.Vector) int {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Len()
}

// sparseRows lists each test row's set columns as the sparse row Run
// takes.
func sparseRows(rows []*bitvec.Vector) [][]int32 {
	out := make([][]int32, len(rows))
	for i, r := range rows {
		for _, j := range r.Indices() {
			out[i] = append(out[i], int32(j))
		}
	}
	return out
}

// The TestGroupsCSR* cases run Run on sparse rows; "CSR" names that
// lane, as against the arena lane GroupsMat runs.

func TestGroupsCSRPaperExample(t *testing.T) {
	res, err := Run(context.Background(), 4, sparseRows(paperRUAM()), Options{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, [][]int{{1, 3}}) {
		t.Fatalf("Groups = %v, want [[1 3]]", res.Groups)
	}
}

func TestGroupsCSRValidation(t *testing.T) {
	if _, err := Run(context.Background(), 4, sparseRows(paperRUAM()), Options{Threshold: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestGroupsCSREmpty(t *testing.T) {
	res, err := Run(context.Background(), 5, nil, Options{})
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
	rows := [][]int32{nil, {1}, {}} // row 1 has column 1; rows 0 and 2 empty
	res, err := Run(context.Background(), 4, rows, Options{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, [][]int{{0, 2}}) {
		t.Fatalf("Groups = %v, want [[0 2]]", res.Groups)
	}
}

func TestPropertyCSRMatchesDenseGroups(t *testing.T) {
	// Run over the sparse rows and GroupsMat over the arena must agree
	// exactly on every input and threshold, through both the exact and
	// general paths.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 2+r.Intn(40), 1+r.Intn(16), 0.3)
		plantDuplicates(r, rows, r.Intn(8))
		cols, sparse := widthOf(rows), sparseRows(rows)
		for _, k := range []int{0, 1, 2} {
			for _, disable := range []bool{false, true} {
				opts := Options{Threshold: k, DisableExactHashFastPath: disable}
				dense, err := arenaGroups(rows, opts)
				if err != nil {
					return false
				}
				got, err := Run(context.Background(), cols, sparse, opts)
				if err != nil {
					return false
				}
				if !groupsEqual(dense.Groups, got.Groups) {
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
	res, err := Run(context.Background(), widthOf(rows), sparseRows(rows), Options{Threshold: 1})
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
