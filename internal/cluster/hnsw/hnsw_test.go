package hnsw

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/metric"
)

func randRow(r *rand.Rand, dim int, density float64) *bitvec.Vector {
	v := bitvec.New(dim)
	for i := 0; i < dim; i++ {
		if r.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

func randMatrix(r *rand.Rand, n, dim int, density float64) []*bitvec.Vector {
	rows := make([]*bitvec.Vector, n)
	for i := range rows {
		rows[i] = randRow(r, dim, density)
	}
	return rows
}

// pack copies rows into a bit-matrix arena.
func pack(t testing.TB, rows []*bitvec.Vector) *bitmat.Matrix {
	t.Helper()
	m, err := bitmat.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildRows packs rows and builds an index over them.
func buildRows(t testing.TB, rows []*bitvec.Vector, cfg Config, workers int) *index {
	t.Helper()
	idx, err := build(context.Background(), pack(t, rows), cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestValidate(t *testing.T) {
	if err := (Config{M: -1}).Validate(); err == nil {
		t.Fatal("negative M accepted")
	}
	if _, err := build(context.Background(), &bitmat.Matrix{}, Config{M: -1}, 1); err == nil {
		t.Fatal("build accepted invalid config")
	}
	if _, err := Run(context.Background(), &bitmat.Matrix{}, Options{Threshold: -1}); err == nil {
		t.Fatal("Run accepted a negative threshold")
	}
	for _, k := range []metric.Kind{0, metric.Hamming, metric.Manhattan} {
		if err := (Config{Metric: k}).Validate(); err != nil {
			t.Fatalf("metric %v rejected: %v", k, err)
		}
	}
}

func TestEmptyIndexSearch(t *testing.T) {
	idx := buildRows(t, nil, Config{}, 1)
	if hits := idx.searchEfRow(0, 3, 10); hits != nil {
		t.Fatalf("search on empty index = %v, want nil", hits)
	}
	res, err := Run(context.Background(), &bitmat.Matrix{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("Run on empty arena = %v", res.Groups)
	}
}

func TestSingleElement(t *testing.T) {
	idx := buildRows(t, []*bitvec.Vector{bitvec.FromIndices(8, []int{1, 3})}, Config{}, 1)
	hits := idx.searchEfRow(0, 5, 50)
	if len(hits) != 1 || hits[0].id != 0 || hits[0].dist != 0 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestKZeroOrNegative(t *testing.T) {
	idx := buildRows(t, []*bitvec.Vector{bitvec.New(4)}, Config{}, 1)
	for _, k := range []int{0, -3} {
		if hits := idx.searchEfRow(0, k, 50); hits != nil {
			t.Fatalf("search(k=%d) = %v", k, hits)
		}
	}
	for _, row := range []int{-1, 1} {
		if hits := idx.searchEfRow(row, 5, 50); hits != nil {
			t.Fatalf("search(row=%d) = %v, want nil for an out-of-range row", row, hits)
		}
	}
}

func TestFindsExactDuplicate(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rows := randMatrix(r, 50, 64, 0.3)
	rows[37] = rows[5].Clone() // plant a duplicate
	idx := buildRows(t, rows, Config{Seed: 3}, 1)
	hits := idx.searchEfRow(5, 2, 50)
	if len(hits) < 2 {
		t.Fatalf("got %d hits, want 2", len(hits))
	}
	ids := map[int]bool{hits[0].id: true, hits[1].id: true}
	if !ids[5] || !ids[37] {
		t.Fatalf("duplicate pair not found: %v", hits)
	}
	if hits[0].dist != 0 || hits[1].dist != 0 {
		t.Fatalf("duplicate distances = %v", hits)
	}
}

// bruteKNN computes exact k nearest neighbours for recall measurement.
func bruteKNN(rows []*bitvec.Vector, q *bitvec.Vector, k int) []int {
	type pair struct {
		id int
		d  int
	}
	ps := make([]pair, len(rows))
	for i, r := range rows {
		ps[i] = pair{id: i, d: q.Hamming(r)}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].d != ps[j].d {
			return ps[i].d < ps[j].d
		}
		return ps[i].id < ps[j].id
	})
	out := make([]int, 0, k)
	for i := 0; i < k && i < len(ps); i++ {
		out = append(out, ps[i].id)
	}
	return out
}

func TestRecallAgainstBruteForce(t *testing.T) {
	const (
		n      = 400
		dim    = 128
		k      = 10
		trials = 40
	)
	r := rand.New(rand.NewSource(5))
	rows := randMatrix(r, n, dim, 0.25)
	idx := buildRows(t, rows, Config{M: 16, EfConstruction: 200, Seed: 9}, 1)
	hitSum, total := 0, 0
	for tr := 0; tr < trials; tr++ {
		qi := r.Intn(n)
		q := rows[qi]
		exact := bruteKNN(rows, q, k)
		// Recall is distance-based: an approximate hit counts if its
		// distance is within the exact k-th distance (ties are
		// interchangeable).
		kth := q.Hamming(rows[exact[len(exact)-1]])
		for _, h := range idx.searchEfRow(qi, k, 100) {
			if int(h.dist) <= kth {
				hitSum++
			}
		}
		total += k
	}
	recall := float64(hitSum) / float64(total)
	if recall < 0.9 {
		t.Fatalf("recall = %.3f, want >= 0.9", recall)
	}
}

func TestNoFalseDistances(t *testing.T) {
	// Every reported distance must equal the true metric value.
	r := rand.New(rand.NewSource(21))
	rows := randMatrix(r, 100, 64, 0.3)
	idx := buildRows(t, rows, Config{Seed: 2}, 1)
	for i := 0; i < 10; i++ {
		qi := r.Intn(len(rows))
		for _, h := range idx.searchEfRow(qi, 5, 50) {
			if want := float64(rows[qi].Hamming(rows[h.id])); h.dist != want {
				t.Fatalf("hit %d reported dist %v, true %v", h.id, h.dist, want)
			}
		}
	}
}

func TestResultsSortedAscending(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	idx := buildRows(t, randMatrix(r, 200, 64, 0.3), Config{Seed: 4}, 1)
	hits := idx.searchEfRow(0, 20, 50)
	for i := 1; i < len(hits); i++ {
		if hits[i].dist < hits[i-1].dist {
			t.Fatalf("hits not sorted: %v", hits)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	rows := randMatrix(r, 150, 64, 0.3)
	search := func() []neighbour {
		return buildRows(t, rows, Config{Seed: 42}, 1).searchEfRow(3, 10, 50)
	}
	a, b := search(), search()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic result sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic results: %v vs %v", a, b)
		}
	}
}

func TestSearchRadius(t *testing.T) {
	rows := []*bitvec.Vector{
		bitvec.FromIndices(16, []int{0, 1}),
		bitvec.FromIndices(16, []int{0, 1}),     // dup of 0
		bitvec.FromIndices(16, []int{0, 1, 2}),  // dist 1 from 0
		bitvec.FromIndices(16, []int{8, 9, 10}), // far
	}
	idx := buildRows(t, rows, Config{Seed: 6}, 1)
	hits := idx.searchRadiusRow(0, 1, 10)
	ids := map[int]bool{}
	for _, h := range hits {
		if h.dist > 1 {
			t.Fatalf("hit outside radius: %v", h)
		}
		ids[h.id] = true
	}
	for _, want := range []int{0, 1, 2} {
		if !ids[want] {
			t.Fatalf("radius search missed id %d: %v", want, hits)
		}
	}
	if ids[3] {
		t.Fatal("radius search returned far point")
	}

	// Run links the same neighbourhood into one group.
	res, err := Run(context.Background(), pack(t, rows), Options{Config: Config{Seed: 6}, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || len(res.Groups[0]) != 3 {
		t.Fatalf("Run groups = %v, want [[0 1 2]]", res.Groups)
	}
}

func TestHeuristicSelection(t *testing.T) {
	// The heuristic variant must still find planted duplicates.
	r := rand.New(rand.NewSource(13))
	rows := randMatrix(r, 120, 64, 0.3)
	rows[100] = rows[10].Clone()
	idx := buildRows(t, rows, Config{Seed: 8, Heuristic: true}, 1)
	found := false
	for _, h := range idx.searchEfRow(10, 2, 50) {
		if h.id == 100 {
			found = true
		}
	}
	if !found {
		t.Fatal("heuristic index missed planted duplicate")
	}
}

func TestDefaultMetricIsManhattan(t *testing.T) {
	idx := buildRows(t, nil, Config{}, 1)
	if idx.cfg.Metric != metric.Manhattan {
		t.Fatalf("default metric = %v, want manhattan", idx.cfg.Metric)
	}
}

func TestLenGrows(t *testing.T) {
	var rows []*bitvec.Vector
	for i := 0; i < 10; i++ {
		rows = append(rows, bitvec.FromIndices(8, []int{i % 8}))
		if got := buildRows(t, rows, Config{}, 1).Len(); got != len(rows) {
			t.Fatalf("Len = %d, want %d", got, len(rows))
		}
	}
}
