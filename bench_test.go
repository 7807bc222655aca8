package repro

// Benchmarks regenerating the paper's evaluation (one benchmark family
// per figure/table) plus the ablations called out in DESIGN.md §6.
//
// Figures 2 and 3 fix one matrix dimension at 1,000 and sweep the other
// from 1,000 to 10,000, comparing exact clustering (DBSCAN), approximate
// clustering (HNSW) and the paper's Role Diet algorithm on detecting
// roles that share the same users. The §IV-B table is the organisation-
// scale audit. Run everything with:
//
//	go test -bench=. -benchmem
//
// The slow points (DBSCAN/HNSW at 10k roles, the full-scale org) are
// real; they are the paper's argument.

import (
	"context"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/cluster/bitlsh"
	"repro/internal/cluster/dbscan"
	"repro/internal/cluster/hnsw"
	"repro/internal/cluster/rolediet"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/matrix"
)

// genMatrix builds the paper's synthetic workload: clusterProportion
// 0.2, maxClusterSize 10 (§IV-A).
func genMatrix(b *testing.B, rows, cols int) *matrix.CSR {
	b.Helper()
	g, err := gen.Matrix(gen.MatrixParams{
		Rows:              rows,
		Cols:              cols,
		ClusterProportion: 0.2,
		MaxClusterSize:    10,
		Seed:              1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g.Rows
}

// pack copies the matrix into a bit-matrix arena. Benchmarks that time
// an arena backend call it inside the timed loop, so the packing every
// production caller pays stays in the measurement.
func pack(rows *matrix.CSR) *bitmat.Matrix {
	return bitmat.FromCSR(rows)
}

// roleDiet runs the Role Diet grouping over the matrix.
func roleDiet(b *testing.B, rows *matrix.CSR, opts rolediet.Options) *rolediet.Result {
	res, err := rolediet.Run(context.Background(), rows, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchMethod times one group-finding method on a rows x cols matrix.
func benchMethod(b *testing.B, m core.Method, rows, cols int) {
	b.Helper()
	data := genMatrix(b, rows, cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := core.FindRoleGroups(context.Background(), data, core.GroupOptions{Method: m, Threshold: 0})
		if err != nil {
			b.Fatal(err)
		}
		if len(groups) == 0 {
			b.Fatal("no groups found")
		}
	}
}

// BenchmarkFigure2 reproduces Figure 2: duration of same-user detection
// as the number of users (columns) grows, roles fixed at 1,000. The
// paper's observation: nearly flat for every method, with HNSW slowest
// (index build dominates), then DBSCAN, then Role Diet.
func BenchmarkFigure2(b *testing.B) {
	const roles = 1000
	for _, users := range []int{1000, 2000, 4000, 7000, 10000} {
		for _, m := range []core.Method{core.MethodRoleDiet, core.MethodDBSCAN, core.MethodHNSW} {
			b.Run(benchName("users", users, m), func(b *testing.B) {
				benchMethod(b, m, roles, users)
			})
		}
	}
}

// BenchmarkFigure3 reproduces Figure 3: duration as the number of roles
// (rows) grows, users fixed at 1,000. The paper's observations: all
// methods grow with role count; DBSCAN grows fastest (quadratic); HNSW
// overtakes DBSCAN around 7,000 roles; Role Diet is fastest throughout
// (§IV-A headline: 2.27s vs 496.41s vs 327.85s at 10,000 roles on their
// hardware).
func BenchmarkFigure3(b *testing.B) {
	const users = 1000
	for _, roles := range []int{1000, 2000, 4000, 7000, 10000} {
		for _, m := range []core.Method{core.MethodRoleDiet, core.MethodDBSCAN, core.MethodHNSW} {
			b.Run(benchName("roles", roles, m), func(b *testing.B) {
				benchMethod(b, m, roles, users)
			})
		}
	}
}

// BenchmarkFigure3Float64Baseline re-runs the Figure 3 role sweep with
// the float64 DBSCAN cost model of the paper's scikit-learn baseline.
// Against this baseline the HNSW crossover reported in the paper
// (approximate overtakes exact around 7,000 roles) reappears; against
// the bit-packed MethodDBSCAN it shifts beyond 10,000 roles because
// word-parallel Hamming distances speed the exact baseline up ~20-50x.
func BenchmarkFigure3Float64Baseline(b *testing.B) {
	const users = 1000
	for _, roles := range []int{1000, 4000, 10000} {
		b.Run(benchName("roles", roles, core.MethodDBSCANFloat64), func(b *testing.B) {
			benchMethod(b, core.MethodDBSCANFloat64, roles, users)
		})
	}
}

func benchName(axis string, v int, m core.Method) string {
	return axis + "=" + itoa(v) + "/" + m.String()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkOrgScale reproduces the §IV-B audit: generating and
// analysing the organisation-scale dataset with core.Analyze's default
// Role Diet method, which groups over the CSR snapshot. scale=1 is the paper's full ~50k-role scale; the smaller
// scales show near-linear behaviour. Generation is included in setup,
// not the measurement.
func BenchmarkOrgScale(b *testing.B) {
	for _, scale := range []int{100, 10, 1} {
		b.Run("scale=1/"+itoa(scale), func(b *testing.B) {
			ds, _, err := gen.Org(gen.DefaultOrgParams().Scaled(scale))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := core.Analyze(ds, core.Options{SimilarThreshold: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.SameUserGroups) == 0 {
					b.Fatal("no groups detected")
				}
			}
		})
	}
}

// BenchmarkAblationCooccurrence contrasts the paper's didactic O(r²)
// co-occurrence matrix with the production inverted-index path
// (DESIGN.md §6): the full matrix touches every role pair, the inverted
// index only pairs that share at least one user.
func BenchmarkAblationCooccurrence(b *testing.B) {
	rows := genMatrix(b, 2000, 1000)
	b.Run("full-matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := rolediet.CooccurrenceMatrix(rows)
			groups := rolediet.GroupsFromIndicator(c)
			if len(groups) == 0 {
				b.Fatal("no groups")
			}
		}
	})
	b.Run("inverted-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := roleDiet(b, rows, rolediet.Options{DisableExactHashFastPath: true})
			if len(res.Groups) == 0 {
				b.Fatal("no groups")
			}
		}
	})
}

// BenchmarkAblationExactHash measures the hash-bucket fast path for
// exact groups against the general co-occurrence path at k=0.
func BenchmarkAblationExactHash(b *testing.B) {
	rows := genMatrix(b, 5000, 1000)
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"hash-fast-path", false},
		{"general-path", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := roleDiet(b, rows, rolediet.Options{DisableExactHashFastPath: tc.disable})
				if len(res.Groups) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

// BenchmarkAblationBitvecDistance contrasts DBSCAN over bit-packed rows
// with DBSCAN over []float64 rows (the representation the paper's
// scikit-learn baseline uses), isolating the win from word-parallel
// Hamming distances.
func BenchmarkAblationBitvecDistance(b *testing.B) {
	rows := genMatrix(b, 500, 1000)
	floats := make([][]float64, rows.Rows())
	for i := range floats {
		floats[i] = make([]float64, rows.Cols())
		for _, j := range rows.RowCols(i) {
			floats[i][j] = 1
		}
	}
	cfg := dbscan.Config{Eps: 0, MinPts: 2}
	b.Run("bitvec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dbscan.Run(context.Background(), pack(rows), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("float64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dbscan.RunFloats(context.Background(), floats, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationHNSWParams sweeps the HNSW construction parameters
// (M, efConstruction): the recall/speed trade-off behind the paper's
// note that faster native implementations exist but the trend stands.
func BenchmarkAblationHNSWParams(b *testing.B) {
	rows := genMatrix(b, 2000, 1000)
	for _, tc := range []struct {
		name string
		m    int
		efc  int
	}{
		{"M=8/efc=100", 8, 100},
		{"M=16/efc=200", 16, 200},
		{"M=32/efc=400", 32, 400},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				groups, err := core.FindRoleGroups(context.Background(), rows, core.GroupOptions{
					Method: core.MethodHNSW,
					HNSW:   hnsw.Config{M: tc.m, EfConstruction: tc.efc, Seed: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = groups
			}
		})
	}
}

// BenchmarkExtensionLSH measures the bit-sampling LSH extension against
// the other methods' workload: candidate generation plus verified
// grouping at thresholds 0 and 1.
func BenchmarkExtensionLSH(b *testing.B) {
	rows := genMatrix(b, 5000, 1000)
	for _, k := range []int{0, 1} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bitlsh.Run(context.Background(), pack(rows), bitlsh.Options{Config: bitlsh.Config{Seed: 1}, Threshold: k})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Groups) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

// BenchmarkExtensionIncremental measures the incremental index: cost of
// one assignment mutation plus a group readout, on a pre-populated
// 10,000-role index — the steady-state cost the batch framework pays a
// full re-run for.
func BenchmarkExtensionIncremental(b *testing.B) {
	x := incremental.New(1)
	const (
		roles = 10000
		width = 1000
	)
	for r := 0; r < roles; r++ {
		if err := x.AddRole(r); err != nil {
			b.Fatal(err)
		}
		for c := r % width; c < width; c += 97 {
			if err := x.Assign(r, c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("mutation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			role := i % roles
			col := i % width
			if err := x.Assign(role, col); err != nil {
				b.Fatal(err)
			}
			if err := x.Revoke(role, col); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("groups-readout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = x.Groups(incremental.GroupOptions{IgnoreEmpty: true})
		}
	})
}

// BenchmarkAblationParallel measures the multi-core fan-out of the Role
// Diet co-occurrence pass (Options.Workers) against the serial lane at
// threshold 1, where the pair-emission phase dominates.
func BenchmarkAblationParallel(b *testing.B) {
	rows := genMatrix(b, 10000, 1000)
	for _, workers := range []int{1, 2, 4, 8} {
		name := "workers=" + itoa(workers)
		if workers == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				roleDiet(b, rows, rolediet.Options{Threshold: 1, Workers: workers})
			}
		})
	}
}

// BenchmarkAblationParallelBackends extends the parallel ablation to
// the remaining backends: DBSCAN region queries, LSH sketch+verify,
// and HNSW construction, serial versus fanned out. Run with -cpu 1,4 to see the single-core overhead (the chunked
// fan-out on one core) next to the multi-core win.
func BenchmarkAblationParallelBackends(b *testing.B) {
	ctx := context.Background()
	dbRows := genMatrix(b, 2000, 1000)
	lshRows := genMatrix(b, 5000, 1000)
	hnswRows := genMatrix(b, 2000, 1000)
	for _, workers := range []int{1, 4} {
		lane := "workers=" + itoa(workers)
		if workers == 1 {
			lane = "serial"
		}
		b.Run("dbscan/"+lane, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dbscan.Run(ctx, pack(dbRows), dbscan.Config{Eps: 1, MinPts: 2, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("lsh/"+lane, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := bitlsh.Options{Config: bitlsh.Config{Seed: 1}, Threshold: 1, Workers: workers}
				if _, err := bitlsh.Run(ctx, pack(lshRows), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("hnsw-build/"+lane, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A one-wide query beam keeps the per-row searches to a
				// greedy descent, so index construction dominates.
				opts := hnsw.Options{Config: hnsw.Config{Seed: 1}, SearchEf: 1, Workers: workers}
				if _, err := hnsw.Run(ctx, pack(hnswRows), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseVsDense compares the dense bit-matrix Role Diet lane
// (arena packing included) against the CSR lane on the same workload,
// the §III-B representation trade-off.
func BenchmarkSparseVsDense(b *testing.B) {
	rows := genMatrix(b, 5000, 2000)
	opts := rolediet.Options{Threshold: 1}
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rolediet.GroupsMat(pack(rows), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			roleDiet(b, rows, opts)
		}
	})
}
