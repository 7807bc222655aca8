package bitmat

import (
	"testing"

	"repro/internal/bitvec"
)

// fuzzRows reconstructs a small corpus of equal-width rows from fuzzed
// bytes. Width is derived from the byte count plus a fuzzed trim so the
// arena lands on word boundaries, mid-word offsets, and every stride
// remainder class (1..8 payload words per cache line) alike.
func fuzzRows(data []byte, trim uint8, nrows int) []*bitvec.Vector {
	if len(data) == 0 || len(data) > 96 {
		return nil
	}
	width := len(data)*8 - int(trim%8)
	if width <= 0 {
		return nil
	}
	rows := make([]*bitvec.Vector, nrows)
	for r := range rows {
		v := bitvec.New(width)
		for i := 0; i < width; i++ {
			// Each row reads the byte stream at a different rotation so
			// rows differ without needing more fuzz input.
			if data[(i/8+r*3)%len(data)]&(1<<((i+r)%8)) != 0 {
				v.Set(i)
			}
		}
		rows[r] = v
	}
	return rows
}

// checkPaddingF fails if any padding word is nonzero — the invariant
// every unrolled kernel depends on.
func checkPaddingF(t *testing.T, m *Matrix) {
	t.Helper()
	for i := 0; i < m.Rows(); i++ {
		view := m.RowView(i)
		for k := m.Words(); k < len(view); k++ {
			if view[k] != 0 {
				t.Fatalf("row %d padding word %d is %#x, want 0", i, k, view[k])
			}
		}
	}
}

// FuzzBitmatHammingParity checks every arena distance kernel against the
// bitvec.Vector reference path: pairwise Hamming, the short-circuiting
// HammingAtMost, and the tiled HammingBlock must all agree with the
// scalar loop on arbitrary widths.
func FuzzBitmatHammingParity(f *testing.F) {
	f.Add([]byte{0xaa, 0x55, 0x00, 0xff}, uint8(3), uint8(2))
	f.Add([]byte{0x01}, uint8(0), uint8(0))
	f.Add(make([]byte, 64), uint8(7), uint8(255))
	f.Add([]byte{0xff, 0x0f, 0xf0}, uint8(1), uint8(17))
	f.Fuzz(func(t *testing.T, data []byte, trim, kseed uint8) {
		rows := fuzzRows(data, trim, 5)
		if rows == nil {
			return
		}
		m, err := FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		checkPaddingF(t, m)
		width := rows[0].Len()
		k := int(kseed) % (width + 2)
		for i := range rows {
			for j := range rows {
				want := rows[i].Hamming(rows[j])
				if got := m.Hamming(i, j); got != want {
					t.Fatalf("width %d: Hamming(%d,%d) = %d, scalar = %d", width, i, j, got, want)
				}
				if got, want := m.HammingAtMost(i, j, k), want <= k; got != want {
					t.Fatalf("width %d: HammingAtMost(%d,%d,%d) = %v, scalar = %v", width, i, j, k, got, want)
				}
			}
		}
		queries := []int32{0, int32(len(rows) - 1), 2}
		dst := make([]int32, len(queries)*len(rows))
		m.HammingBlock(dst, queries, 0, len(rows))
		for qi, q := range queries {
			for j := range rows {
				if got, want := int(dst[qi*len(rows)+j]), rows[q].Hamming(rows[j]); got != want {
					t.Fatalf("HammingBlock(q=%d, %d) = %d, scalar = %d", q, j, got, want)
				}
			}
		}
	})
}

// FuzzBitmatNormParity checks the precomputed norms against Count and
// the norm-pruned neighbor kernels against a brute-force scan: pruning
// must never drop a row whose true distance is within kmax (the
// boundary ||a|-|b|| == kmax case in particular).
func FuzzBitmatNormParity(f *testing.F) {
	f.Add([]byte{0x00, 0xff}, uint8(0), uint8(1))
	f.Add([]byte{0xaa, 0x55, 0xcc}, uint8(5), uint8(0))
	f.Add(make([]byte, 33), uint8(2), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, trim, kseed uint8) {
		rows := fuzzRows(data, trim, 6)
		if rows == nil {
			return
		}
		m, err := FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		width := rows[0].Len()
		for i, r := range rows {
			if m.Norm(i) != r.Count() {
				t.Fatalf("Norm(%d) = %d, Count = %d", i, m.Norm(i), r.Count())
			}
		}
		kmax := int(kseed) % (width + 2)
		neigh := make([][]int32, len(rows))
		queries := make([]int32, len(rows))
		for i := range queries {
			queries[i] = int32(i)
		}
		m.NeighborsInto(neigh, queries, 0, len(rows), kmax)
		for p := range rows {
			var want []int32
			for j := range rows {
				if rows[p].Hamming(rows[j]) <= kmax {
					want = append(want, int32(j))
				}
			}
			for _, got := range [][]int32{m.NeighborsAppend(nil, p, 0, len(rows), kmax), neigh[p]} {
				if len(got) != len(want) {
					t.Fatalf("p=%d kmax=%d: pruned scan found %v, brute force %v", p, kmax, got, want)
				}
				for x := range got {
					if got[x] != want[x] {
						t.Fatalf("p=%d kmax=%d: pruned scan found %v, brute force %v", p, kmax, got, want)
					}
				}
			}
		}
	})
}

// FuzzBitmatCooccurrenceParity checks Intersection against the bitvec
// co-occurrence reference and the paper's identity
// Hamming(i,j) = |R_i| + |R_j| - 2*g(i,j) on the arena kernels.
func FuzzBitmatCooccurrenceParity(f *testing.F) {
	f.Add([]byte{0x0f, 0xf0}, uint8(0))
	f.Add([]byte{0xff}, uint8(7))
	f.Add(make([]byte, 48), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, trim uint8) {
		rows := fuzzRows(data, trim, 4)
		if rows == nil {
			return
		}
		m, err := FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			for j := range rows {
				g := m.Intersection(i, j)
				if want := rows[i].IntersectionCount(rows[j]); g != want {
					t.Fatalf("Intersection(%d,%d) = %d, scalar = %d", i, j, g, want)
				}
				if m.Hamming(i, j) != m.Norm(i)+m.Norm(j)-2*g {
					t.Fatalf("Hamming identity violated at (%d,%d)", i, j)
				}
			}
		}
	})
}
