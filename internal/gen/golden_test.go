package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"
)

// matrixDigest hashes a generated matrix: one line per row listing its
// set columns, then one line per planted cluster listing its members.
func matrixDigest(g *GeneratedMatrix) string {
	h := sha256.New()
	line := func(ints []int) {
		var buf []byte
		for k, v := range ints {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		h.Write(append(buf, '\n'))
	}
	for i := 0; i < g.Rows.Rows(); i++ {
		line(g.Rows.RowCols(i))
	}
	h.Write([]byte("planted\n"))
	for _, grp := range g.Planted {
		line(grp)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMatrixGolden pins the generator's output, rows and ground truth,
// for fixed seeds. Every figure, recall table and differential corpus
// is drawn from it, so any drift in its RNG use shows up here first.
func TestMatrixGolden(t *testing.T) {
	for _, tc := range []struct {
		p    MatrixParams
		want string
	}{
		{MatrixParams{Rows: 200, Cols: 64, ClusterProportion: 0.2, MaxClusterSize: 10, Seed: 1},
			"8f2214170988f1c85020a5b6adbd390c73a6a045c194e26ac027db1f2127ce44"},
		{MatrixParams{Rows: 300, Cols: 128, ClusterProportion: 0.4, MaxClusterSize: 5, SimilarNoise: 2, Seed: 5},
			"364b56aae355e34da5bc7f0e494a175b51d33df30237a91cc3a70e2c6f21ae1e"},
		{MatrixParams{Rows: 2000, Cols: 1000, ClusterProportion: 0.2, MaxClusterSize: 10, Seed: 1},
			"6f01668aec2b2d1b21058143d5f858a83497a178db4ac03213fc63951367e872"},
		{MatrixParams{Rows: 120, Cols: 96, ClusterProportion: 1, MaxClusterSize: 6, Density: 0.08, SimilarNoise: 1, Seed: 42},
			"20c89ffd3ae4d4869e58384f35dce51578ae6c6716de3eaee1303f83b4d857ec"},
		// Eight columns at density 0.5 make repeated draws common, so
		// the distinct-row redraw loop runs.
		{MatrixParams{Rows: 60, Cols: 8, Density: 0.5, Seed: 3},
			"5f5b173f44c2844c5a02ce509a3351fb81eb7fccd957d58e1ca723c371b1f249"},
		{MatrixParams{Rows: 0, Cols: 5},
			"60f97c7b5bf55c5f186c5d1c79c8e3b6929c83bf2766434df9f1e1b9069db73a"},
	} {
		g, err := Matrix(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixDigest(g); got != tc.want {
			t.Errorf("%+v: digest %s, want %s", tc.p, got, tc.want)
		}
	}
}
