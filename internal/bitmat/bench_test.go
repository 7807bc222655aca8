package bitmat

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

// Kernel micro-benchmarks: the fast inner loop for perf PRs
// (`make bench-kernels`). The corpus shape mirrors a mid-size RBAC
// side: 512 roles over 2048 users, clustered so norm pruning has
// realistic (not degenerate) selectivity.
const (
	benchRows = 512
	benchCols = 2048
)

func benchCorpus() ([]*bitvec.Vector, *Matrix) {
	rng := rand.New(rand.NewSource(42))
	rows := make([]*bitvec.Vector, benchRows)
	for i := range rows {
		v := bitvec.New(benchCols)
		// ~32 clusters of similar rows: same base pattern per cluster,
		// with a couple of per-row flips.
		cluster := i / 16
		cr := rand.New(rand.NewSource(int64(cluster)))
		for j := 0; j < benchCols; j++ {
			if cr.Float64() < 0.1 {
				v.Set(j)
			}
		}
		for f := 0; f < 3; f++ {
			j := rng.Intn(benchCols)
			if v.Get(j) {
				v.Clear(j)
			} else {
				v.Set(j)
			}
		}
		rows[i] = v
	}
	m, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return rows, m
}

// BenchmarkKernelHammingPairwise measures arena row-to-row distances —
// the HNSW build/search inner loop.
func BenchmarkKernelHammingPairwise(b *testing.B) {
	_, m := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for p := 0; p < benchRows; p++ {
			sink += m.Hamming(p, (p*31+i)%benchRows)
		}
	}
	_ = sink
}

// BenchmarkKernelHammingPairwiseRef is the pre-arena reference: the
// same distances through per-row *bitvec.Vector pointers.
func BenchmarkKernelHammingPairwiseRef(b *testing.B) {
	rows, _ := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for p := 0; p < benchRows; p++ {
			sink += rows[p].Hamming(rows[(p*31+i)%benchRows])
		}
	}
	_ = sink
}

// BenchmarkKernelHammingBlock measures the tiled all-pairs kernel —
// the parallel DBSCAN neighborhood precompute without pruning.
func BenchmarkKernelHammingBlock(b *testing.B) {
	_, m := benchCorpus()
	queries := make([]int32, benchRows)
	for i := range queries {
		queries[i] = int32(i)
	}
	dst := make([]int32, benchRows*benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.HammingBlock(dst, queries, 0, benchRows)
	}
}

// BenchmarkKernelHammingBatchRef is the pre-arena reference for the
// all-pairs scan: bitvec.HammingBatch once per query row.
func BenchmarkKernelHammingBatchRef(b *testing.B) {
	rows, _ := benchCorpus()
	dst := make([]int, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < benchRows; p++ {
			bitvec.HammingBatch(dst, rows, rows[p])
		}
	}
}

// BenchmarkKernelNeighborsPruned measures the norm-pruned region scan
// at the similar-roles threshold (kmax=1) — the DBSCAN hot path after
// this PR.
func BenchmarkKernelNeighborsPruned(b *testing.B) {
	_, m := benchCorpus()
	queries := make([]int32, benchRows)
	for i := range queries {
		queries[i] = int32(i)
	}
	neigh := make([][]int32, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := range neigh {
			neigh[q] = neigh[q][:0]
		}
		m.NeighborsInto(neigh, queries, 0, benchRows, 1)
	}
}

// BenchmarkKernelIntersection measures co-occurrence counts g(i,j) —
// the Role Diet pair-verification kernel.
func BenchmarkKernelIntersection(b *testing.B) {
	_, m := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for p := 0; p < benchRows; p++ {
			sink += m.Intersection(p, (p*17+i)%benchRows)
		}
	}
	_ = sink
}
