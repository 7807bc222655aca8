package hnsw

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// sameGraph reports whether two indexes have the same entry point,
// layer structure and adjacency, edge for edge.
func sameGraph(t *testing.T, a, b *index) {
	t.Helper()
	if a.entry != b.entry || a.maxLayer != b.maxLayer {
		t.Fatalf("entry/maxLayer diverge: (%d,%d) vs (%d,%d)", a.entry, a.maxLayer, b.entry, b.maxLayer)
	}
	if len(a.nodes) != len(b.nodes) {
		t.Fatalf("%d nodes vs %d", len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		an, bn := a.nodes[i], b.nodes[i]
		if len(an.neighbours) != len(bn.neighbours) {
			t.Fatalf("node %d: level diverges", i)
		}
		for l := range an.neighbours {
			if len(an.neighbours[l]) != len(bn.neighbours[l]) {
				t.Fatalf("node %d layer %d: adjacency diverges", i, l)
			}
			for j := range an.neighbours[l] {
				if an.neighbours[l][j] != bn.neighbours[l][j] {
					t.Fatalf("node %d layer %d: adjacency diverges", i, l)
				}
			}
		}
	}
}

// graphDigest hashes an index's entry point, top layer, and every
// node's level and adjacency lists (neighbour ids and edge distances,
// in stored order).
func graphDigest(x *index) string {
	h := sha256.New()
	fmt.Fprintf(h, "entry=%d maxLayer=%d nodes=%d\n", x.entry, x.maxLayer, len(x.nodes))
	for i, n := range x.nodes {
		fmt.Fprintf(h, "node %d levels=%d\n", i, len(n.neighbours))
		for l, edges := range n.neighbours {
			fmt.Fprintf(h, " l%d:", l)
			for _, e := range edges {
				fmt.Fprintf(h, " %d/%g", e.id, e.dist)
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildParallelOneWorkerMatchesSerial: the batch builder run as a
// single chunk must reproduce the graph of the serial insertion routine
// it replaced exactly — same levels from the same seeded generator,
// same links. The digests were recorded from that serial routine.
func TestBuildParallelOneWorkerMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rows := randMatrix(r, 200, 64, 0.3)
	for _, c := range []struct {
		cfg    Config
		digest string
	}{
		{Config{M: 8, EfConstruction: 60, Seed: 5}, "a3cb6d939388ae7bc528fa325113b4a7f785b99a47f3e98b9716e56fd6544d39"},
		{Config{M: 6, EfConstruction: 40, Seed: 7, Heuristic: true}, "f243e3076726cdbe989572ddaa61d68798ee50cf8ae31080791d88659534a5d3"},
	} {
		if got := graphDigest(buildRows(t, rows, c.cfg, 1)); got != c.digest {
			t.Fatalf("%+v: graph digest %s, want %s", c.cfg, got, c.digest)
		}
	}
}

// TestBuildParallelRecall holds the multi-worker build to the same
// recall floor as the serial index on the same workload.
func TestBuildParallelRecall(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	rows := randMatrix(r, 400, 96, 0.25)
	idx := buildRows(t, rows, Config{M: 12, EfConstruction: 100, Heuristic: true}, 4)
	if idx.Len() != len(rows) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(rows))
	}

	const k = 5
	hitSum, total := 0, 0
	for trial := 0; trial < 40; trial++ {
		qi := r.Intn(len(rows))
		inExact := make(map[int]bool, k)
		for _, id := range bruteKNN(rows, rows[qi], k) {
			inExact[id] = true
		}
		for _, nb := range idx.searchEfRow(qi, k, 128) {
			if inExact[nb.id] {
				hitSum++
			}
		}
		total += k
	}
	if recall := float64(hitSum) / float64(total); recall < 0.85 {
		t.Fatalf("parallel-build recall = %.3f, want >= 0.85", recall)
	}
}

// TestBuildParallelDistancesHonest: every reported distance must equal
// the true metric distance; the parallel build may miss neighbours but
// must never fabricate distances.
func TestBuildParallelDistancesHonest(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	rows := randMatrix(r, 150, 48, 0.3)
	idx := buildRows(t, rows, Config{M: 8, EfConstruction: 40}, 3)
	for trial := 0; trial < 20; trial++ {
		qi := r.Intn(len(rows))
		for _, nb := range idx.searchEfRow(qi, 8, 32) {
			if want := float64(rows[qi].Hamming(rows[nb.id])); nb.dist != want {
				t.Fatalf("neighbour %d: dist %v, true %v", nb.id, nb.dist, want)
			}
		}
	}
}

func TestBuildParallelValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := pack(t, randMatrix(r, 8, 16, 0.5))
	if _, err := build(context.Background(), m, Config{M: -1}, 2); err == nil {
		t.Fatal("negative M accepted")
	}
	if _, err := build(context.Background(), m, Config{Metric: 3}, 2); err == nil {
		t.Fatal("unsupported metric accepted")
	}
}

func TestBuildParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := rand.New(rand.NewSource(2))
	m := pack(t, randMatrix(r, 64, 16, 0.5))
	if _, err := build(ctx, m, Config{}, 4); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := Run(ctx, m, Options{Workers: 4}); err != context.Canceled {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
}

// TestBuildParallelEmptyAndSingle covers the worker clamp's edge cases.
func TestBuildParallelEmptyAndSingle(t *testing.T) {
	if idx := buildRows(t, nil, Config{}, 4); idx.Len() != 0 {
		t.Fatalf("Len = %d", idx.Len())
	}
	r := rand.New(rand.NewSource(3))
	if idx := buildRows(t, randMatrix(r, 1, 8, 0.5), Config{}, 4); idx.Len() != 1 {
		t.Fatalf("Len = %d", idx.Len())
	}
}
