package testkit

import (
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/gen"
)

// Corpus is one seeded differential-test input: a generator
// configuration plus the grouping threshold to run the backends at.
// Everything needed to reproduce a run is in the struct — failure
// messages print it verbatim.
type Corpus struct {
	// Name labels the corpus in failures and subtests.
	Name string
	// Params drives the §IV-A synthetic generator; Params.Seed makes the
	// corpus deterministic. Ignored when Gen is set.
	Params gen.MatrixParams
	// Gen, when non-nil, replaces the synthetic generator with a
	// hand-planted deterministic matrix — used for adversarial geometries
	// the generator cannot express, like rows straddling the norm-pruning
	// boundary at exactly the threshold.
	Gen func() ([]*bitvec.Vector, error)
	// Threshold is the Hamming threshold k handed to every backend: 0
	// exercises the class-4 (same users/permissions) paths, k ≥ 1 the
	// class-5 (similar) paths.
	Threshold int
	// RelaxedRecall disables the recall floor for approximate backends
	// on this corpus (the zero-false-pairs invariant still applies).
	// Used for degenerate geometries — e.g. an 8-column matrix at k=1,
	// where almost every row chains into one giant component and a
	// single missed bridge edge costs hundreds of within-group pairs,
	// making pair recall meaningless as an accuracy metric.
	RelaxedRecall bool
}

// Rows materialises the corpus matrix.
func (c Corpus) Rows() ([]*bitvec.Vector, error) {
	if c.Gen != nil {
		return c.Gen()
	}
	g, err := gen.Matrix(c.Params)
	if err != nil {
		return nil, err
	}
	return vectors(g), nil
}

// vectors copies each generated row into a bit vector, the harness's
// row form.
func vectors(g *gen.GeneratedMatrix) []*bitvec.Vector {
	out := make([]*bitvec.Vector, len(g.Rows))
	for i, row := range g.Rows {
		v := bitvec.New(g.Cols)
		for _, j := range row {
			v.Set(int(j))
		}
		out[i] = v
	}
	return out
}

// String renders the reproduction recipe printed on failure.
func (c Corpus) String() string {
	if c.Gen != nil {
		return fmt.Sprintf("%s: hand-planted corpus (see Corpora) threshold=%d", c.Name, c.Threshold)
	}
	p := c.Params
	return fmt.Sprintf("%s: gen.Matrix{Rows:%d Cols:%d ClusterProportion:%g MaxClusterSize:%d Density:%g SimilarNoise:%d Seed:%d} threshold=%d",
		c.Name, p.Rows, p.Cols, p.ClusterProportion, p.MaxClusterSize, p.Density, p.SimilarNoise, p.Seed, c.Threshold)
}

// corpusShape is a matrix geometry the sweep crosses with noise and
// threshold settings.
type corpusShape struct {
	rows, cols int
	density    float64
}

// corpusRegime pairs a planted-noise level with the detection threshold
// run against it. noise ≤ threshold keeps planted clusters recoverable;
// the noise=1/k=0 regime deliberately plants clusters the threshold must
// NOT fully merge, exercising the negative direction.
type corpusRegime struct {
	noise, threshold int
}

// Corpora returns the seeded corpus sweep. The short list (full=false)
// is sized for `go test` latency: every backend including O(n²) DBSCAN
// and HNSW construction completes the whole sweep in a few seconds. The
// full list appends organisation-shaped matrices (thousands of roles)
// for the scheduled CI sweep; it is minutes, not seconds.
func Corpora(full bool) []Corpus {
	shapes := []corpusShape{
		{rows: 80, cols: 96, density: 0.08},
		{rows: 150, cols: 128, density: 0.05},
		{rows: 200, cols: 256, density: 0.03},
		{rows: 120, cols: 64, density: 0.10},
	}
	regimes := []corpusRegime{
		{noise: 0, threshold: 0},
		{noise: 0, threshold: 1},
		{noise: 1, threshold: 1},
		{noise: 2, threshold: 2},
		{noise: 3, threshold: 3},
	}
	var out []Corpus
	seed := int64(1)
	for si, sh := range shapes {
		for ri, rg := range regimes {
			out = append(out, Corpus{
				Name: fmt.Sprintf("sweep-%dx%d-n%d-k%d", sh.rows, sh.cols, rg.noise, rg.threshold),
				Params: gen.MatrixParams{
					Rows:              sh.rows,
					Cols:              sh.cols,
					ClusterProportion: 0.2,
					MaxClusterSize:    10,
					Density:           sh.density,
					SimilarNoise:      rg.noise,
					Seed:              seed + int64(si*len(regimes)+ri),
				},
				Threshold: rg.threshold,
			})
		}
	}

	// Edge corpora: degenerate shapes the sweep grid does not reach.
	out = append(out,
		Corpus{
			Name: "all-clustered",
			Params: gen.MatrixParams{
				Rows: 60, Cols: 64, ClusterProportion: 1.0,
				MaxClusterSize: 6, Density: 0.1, Seed: 101,
			},
			Threshold: 0,
		},
		Corpus{
			Name: "no-planted-clusters",
			Params: gen.MatrixParams{
				Rows: 90, Cols: 48, ClusterProportion: 0,
				Density: 0.15, Seed: 102,
			},
			Threshold: 1,
		},
		Corpus{
			Name: "tiny-width",
			Params: gen.MatrixParams{
				Rows: 40, Cols: 8, ClusterProportion: 0.3,
				MaxClusterSize: 4, Density: 0.3, Seed: 103,
			},
			Threshold:     1,
			RelaxedRecall: true,
		},
		Corpus{
			Name: "dense-rows",
			Params: gen.MatrixParams{
				Rows: 70, Cols: 80, ClusterProportion: 0.25,
				MaxClusterSize: 5, Density: 0.5, SimilarNoise: 2, Seed: 104,
			},
			Threshold: 2,
		},
	)

	// Norm-boundary corpora: every chain plants a base row, a superset
	// at Hamming distance exactly k (norm gap exactly k — the last pair
	// the triangle-inequality pre-pass may NOT prune), and a superset at
	// distance k+1 (norm gap k+1 — the first pair it must). An off-by-one
	// in the pruning comparison drops true boundary pairs, which the
	// brute-force oracle catches as missing groups in the exact backends.
	for _, k := range []int{0, 1, 2, 3} {
		k := k
		out = append(out, Corpus{
			Name: fmt.Sprintf("norm-boundary-k%d", k),
			Gen:  func() ([]*bitvec.Vector, error) { return normBoundaryRows(int64(200+k), 96, k, 12), nil },
			// The corpus exists to catch off-by-ones in the exact kernels'
			// pruning; every planted pair sits at distance exactly k, so
			// an approximate search is at its weakest and the recall floor
			// is statistically meaningless here.
			RelaxedRecall: true,
			Threshold:     k,
		})
	}

	if full {
		for i, sh := range []corpusShape{
			{rows: 1000, cols: 512, density: 0.03},
			{rows: 2000, cols: 1000, density: 0.02},
			{rows: 4000, cols: 1000, density: 0.01},
		} {
			for _, rg := range regimes {
				out = append(out, Corpus{
					Name: fmt.Sprintf("full-%dx%d-n%d-k%d", sh.rows, sh.cols, rg.noise, rg.threshold),
					Params: gen.MatrixParams{
						Rows:              sh.rows,
						Cols:              sh.cols,
						ClusterProportion: 0.2,
						MaxClusterSize:    10,
						Density:           sh.density,
						SimilarNoise:      rg.noise,
						Seed:              int64(1000 + i),
					},
					Threshold: rg.threshold,
				})
			}
		}
	}
	return out
}

// normBoundaryRows hand-plants the pruning-boundary matrix: chains of
// (base, base+k extra bits, base+(k+1) extra bits) rows. The middle row
// sits at distance k from the base with a norm gap of exactly k, so a
// pruning pre-pass using |‖a‖−‖b‖| >= k instead of > k would skip a
// true pair; the last row sits one past the boundary on both counts.
// Chains use independent random bases, so cross-chain distances are far
// above any small k and the planted structure is the whole truth.
func normBoundaryRows(seed int64, width, k, chains int) []*bitvec.Vector {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]*bitvec.Vector, 0, 3*chains)
	for c := 0; c < chains; c++ {
		base := bitvec.New(width)
		for j := 0; j < width; j++ {
			if rng.Float64() < 0.3 {
				base.Set(j)
			}
		}
		free := make([]int, 0, width)
		for j := 0; j < width; j++ {
			if !base.Get(j) {
				free = append(free, j)
			}
		}
		rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		atBoundary := base.Clone()
		for _, j := range free[:k] {
			atBoundary.Set(j)
		}
		pastBoundary := base.Clone()
		for _, j := range free[k : 2*k+1] {
			pastBoundary.Set(j)
		}
		rows = append(rows, base, atBoundary, pastBoundary)
	}
	return rows
}
