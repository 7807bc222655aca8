package testkit

import (
	"context"
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/cluster/bitlsh"
	"repro/internal/cluster/dbscan"
	"repro/internal/cluster/hnsw"
	"repro/internal/cluster/rolediet"
	"repro/internal/matrix"
)

// Backend is one clustering implementation under differential test. Run
// lays the rows out as a CSR (rolediet) or packs them into the bit-matrix
// arena (the other backends) and invokes the very entry point
// internal/core ships, returning the partition in canonical form.
type Backend struct {
	// Name identifies the backend in failure messages and case files.
	Name string
	// Exact backends must reproduce the oracle partition exactly.
	Exact bool
	// MinRecall is the pair-level recall floor for approximate backends
	// (ignored when Exact). The floors are derived from the measured
	// sweep in results/recall.txt — see Backends for the derivation.
	MinRecall float64
	// Run executes the backend over the rows at the given threshold.
	Run func(ctx context.Context, rows []*bitvec.Vector, threshold int) ([][]int, error)
}

// rowsToCSR lists each row's set columns as one CSR row. All rows must
// share a width, as bitmat.FromRows requires of the arena lanes.
func rowsToCSR(rows []*bitvec.Vector) (*matrix.CSR, error) {
	cols := 0
	if len(rows) > 0 {
		cols = rows[0].Len()
	}
	lists := make([][]int, len(rows))
	for i, r := range rows {
		if r.Len() != cols {
			return nil, fmt.Errorf("testkit: row %d has length %d, want %d", i, r.Len(), cols)
		}
		lists[i] = r.Indices()
	}
	return matrix.CSRFromLists(cols, lists), nil
}

// hnswSearchEf is the beam width the harness queries with. recall.txt
// measures pair recall 0.945 at ef=128 and 0.980 at ef=256 on a
// 4000×1000 matrix at threshold 0; the harness uses 256 because the
// TESTKIT_FULL sweep reaches that scale at thresholds up to 3, where
// ef=128 drops below the 0.80 floor (0.73 measured on the 4000×1000
// noise=2/k=2 corpus — ef=256 recovers it to ≈0.95).
const hnswSearchEf = 256

// parallelWorkers is the fan-out every "-parallel" backend runs with.
const parallelWorkers = 4

// family is one backend run at a given worker count.
type family struct {
	name      string
	exact     bool
	minRecall float64
	run       func(ctx context.Context, rows []*bitvec.Vector, threshold, workers int) ([][]int, error)
}

// onArena adapts a run over the bit-matrix arena — the storage core
// packs for every backend but rolediet — to the harness's row input.
func onArena(run func(ctx context.Context, m *bitmat.Matrix, threshold, workers int) ([][]int, error)) func(context.Context, []*bitvec.Vector, int, int) ([][]int, error) {
	return func(ctx context.Context, rows []*bitvec.Vector, threshold, workers int) ([][]int, error) {
		m, err := bitmat.FromRows(rows)
		if err != nil {
			return nil, err
		}
		return run(ctx, m, threshold, workers)
	}
}

// Backends returns every clustering backend in the repository: each
// family at one worker (the plain name) and at parallelWorkers (the
// "-parallel" name).
//
// Recall floors for the approximate backends come from the measured
// sweep in results/recall.txt (4000×1000 matrix, threshold 0, 800
// planted roles):
//
//   - hnsw at ef=128 measured 0.945 pair recall; the floor is set at
//     0.80 to absorb the variance of the much smaller differential
//     corpora, where a single missed pair moves recall by whole
//     percentage points. The parallel build is a valid HNSW graph but
//     not the serial one link for link, so it carries the same floor,
//     verified independently.
//   - lsh with the default 8 tables measured 1.000 at threshold 0 (bit
//     sampling is exact for identical rows); above the threshold the
//     per-pair collision probability is tuned to ≈0.94 (see
//     bitlsh.defaultBits), and chaining recovers most misses. Floor
//     0.90. The parallel lane reproduces the serial result exactly for
//     a fixed seed, but it is still approximate relative to the oracle.
//
// Lowering either floor requires a matching update to the table in
// EXPERIMENTS.md ("Differential correctness harness").
func Backends() []Backend {
	families := []family{
		// The CSR lane core runs for rolediet.
		{name: "rolediet", exact: true, run: func(ctx context.Context, rows []*bitvec.Vector, threshold, workers int) ([][]int, error) {
			c, err := rowsToCSR(rows)
			if err != nil {
				return nil, err
			}
			res, err := rolediet.Run(ctx, c, rolediet.Options{Threshold: threshold, Workers: workers})
			if err != nil {
				return nil, err
			}
			return res.Groups, nil
		}},
		{name: "dbscan", exact: true, run: onArena(func(ctx context.Context, m *bitmat.Matrix, threshold, workers int) ([][]int, error) {
			res, err := dbscan.Run(ctx, m, dbscan.Config{
				// Same epsilon guard as core's dispatch: distances
				// are integral, so +1e-9 cannot admit a false pair.
				Eps:     float64(threshold) + 1e-9,
				MinPts:  2,
				Workers: workers,
			})
			if err != nil {
				return nil, err
			}
			return res.Groups(), nil
		})},
		{name: "hnsw", minRecall: 0.80, run: onArena(func(ctx context.Context, m *bitmat.Matrix, threshold, workers int) ([][]int, error) {
			res, err := hnsw.Run(ctx, m, hnsw.Options{Threshold: threshold, SearchEf: hnswSearchEf, Workers: workers})
			if err != nil {
				return nil, err
			}
			return res.Groups, nil
		})},
		{name: "lsh", minRecall: 0.90, run: onArena(func(ctx context.Context, m *bitmat.Matrix, threshold, workers int) ([][]int, error) {
			res, err := bitlsh.Run(ctx, m, bitlsh.Options{Threshold: threshold, Workers: workers})
			if err != nil {
				return nil, err
			}
			return res.Groups, nil
		})},
	}
	var out []Backend
	for _, f := range families {
		for _, workers := range []int{1, parallelWorkers} {
			name := f.name
			if workers > 1 {
				name += "-parallel"
			}
			out = append(out, Backend{
				Name:      name,
				Exact:     f.exact,
				MinRecall: f.minRecall,
				Run: func(ctx context.Context, rows []*bitvec.Vector, threshold int) ([][]int, error) {
					groups, err := f.run(ctx, rows, threshold, workers)
					if err != nil {
						return nil, err
					}
					return Normalize(groups), nil
				},
			})
		}
	}
	return out
}

// BackendByName looks a backend up for case replay; nil when unknown.
func BackendByName(name string) *Backend {
	for _, b := range Backends() {
		if b.Name == name {
			b := b
			return &b
		}
	}
	return nil
}
