package gen

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cluster/rolediet"
	"repro/internal/matrix"
)

// exactGroups runs the Role Diet exact pass over the rows.
func exactGroups(t *testing.T, rows *matrix.CSR) *rolediet.Result {
	t.Helper()
	res, err := rolediet.Run(context.Background(), rows, rolediet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// hamming counts the columns in exactly one of two ascending lists.
func hamming(a, b []int) int {
	d := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a, d = a[1:], d+1
		case a[0] > b[0]:
			b, d = b[1:], d+1
		default:
			a, b = a[1:], b[1:]
		}
	}
	return d + len(a) + len(b)
}

func TestMatrixValidate(t *testing.T) {
	bad := []MatrixParams{
		{Rows: -1, Cols: 10},
		{Rows: 10, Cols: 0},
		{Rows: 10, Cols: 10, ClusterProportion: -0.1},
		{Rows: 10, Cols: 10, ClusterProportion: 1.1},
		{Rows: 10, Cols: 10, ClusterProportion: 0.5, MaxClusterSize: 1},
		{Rows: 10, Cols: 10, Density: 2},
		{Rows: 10, Cols: 10, SimilarNoise: -1},
	}
	for i, p := range bad {
		if _, err := Matrix(p); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestMatrixShape(t *testing.T) {
	g, err := Matrix(MatrixParams{
		Rows: 200, Cols: 100, ClusterProportion: 0.2, MaxClusterSize: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows.Rows() != 200 || g.Rows.Cols() != 100 {
		t.Fatalf("shape = %dx%d, want 200x100", g.Rows.Rows(), g.Rows.Cols())
	}
	for i := 0; i < g.Rows.Rows(); i++ {
		cols := g.Rows.RowCols(i)
		for k, j := range cols {
			if j < 0 || j >= 100 || (k > 0 && j <= cols[k-1]) {
				t.Fatalf("row %d columns %v not ascending in [0,100)", i, cols)
			}
		}
	}
}

func TestMatrixPlantedProportion(t *testing.T) {
	g, err := Matrix(MatrixParams{
		Rows: 1000, Cols: 200, ClusterProportion: 0.2, MaxClusterSize: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	inClusters := 0
	for _, grp := range g.Planted {
		if len(grp) < 2 {
			t.Fatalf("planted group of size %d", len(grp))
		}
		if len(grp) > 10 {
			t.Fatalf("planted group of size %d exceeds cap", len(grp))
		}
		inClusters += len(grp)
	}
	// 0.2 * 1000, possibly one role short if the tail could not form a
	// pair.
	if inClusters < 198 || inClusters > 200 {
		t.Fatalf("roles in clusters = %d, want ~200", inClusters)
	}
}

func TestMatrixPlantedIsExactGroundTruth(t *testing.T) {
	g, err := Matrix(MatrixParams{
		Rows: 500, Cols: 300, ClusterProportion: 0.2, MaxClusterSize: 10, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := exactGroups(t, g.Rows)
	if !reflect.DeepEqual(res.Groups, g.Planted) {
		t.Fatalf("detected %d groups, planted %d; first detected %v planted %v",
			len(res.Groups), len(g.Planted), res.Groups[0], g.Planted[0])
	}
}

func TestMatrixDeterministic(t *testing.T) {
	p := MatrixParams{Rows: 100, Cols: 50, ClusterProportion: 0.3, MaxClusterSize: 5, Seed: 9}
	a, err := Matrix(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Matrix(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatal("rows differ between runs with same seed")
	}
	if !reflect.DeepEqual(a.Planted, b.Planted) {
		t.Fatal("planted groups differ between runs")
	}
}

func TestMatrixNoClusters(t *testing.T) {
	g, err := Matrix(MatrixParams{Rows: 50, Cols: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Planted) != 0 {
		t.Fatalf("planted = %v, want none", g.Planted)
	}
	if res := exactGroups(t, g.Rows); len(res.Groups) != 0 {
		t.Fatalf("accidental duplicate groups: %v", res.Groups)
	}
}

func TestMatrixSingleClusterRowDowngraded(t *testing.T) {
	// Proportion so small only one row would be clustered: no cluster.
	g, err := Matrix(MatrixParams{
		Rows: 10, Cols: 20, ClusterProportion: 0.1, MaxClusterSize: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Planted) != 0 {
		t.Fatalf("planted = %v, want none for a 1-row cluster budget", g.Planted)
	}
	if g.Rows.Rows() != 10 {
		t.Fatalf("rows = %d", g.Rows.Rows())
	}
}

func TestMatrixSimilarNoise(t *testing.T) {
	g, err := Matrix(MatrixParams{
		Rows: 200, Cols: 100, ClusterProportion: 0.2, MaxClusterSize: 4,
		SimilarNoise: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every noised member stays within Hamming 1 of its group head.
	for _, grp := range g.Planted {
		head := g.Rows.RowCols(grp[0])
		for _, m := range grp[1:] {
			if d := hamming(head, g.Rows.RowCols(m)); d > 1 {
				t.Fatalf("noised member at distance %d from head", d)
			}
		}
	}
}

func TestMatrixEmptyRows(t *testing.T) {
	g, err := Matrix(MatrixParams{Rows: 0, Cols: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows.Rows() != 0 || len(g.Planted) != 0 {
		t.Fatalf("empty generation produced %d rows", g.Rows.Rows())
	}
}
