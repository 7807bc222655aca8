// Package bitmat implements a flat, cache-aware bit-matrix arena shared
// by the clustering backends.
//
// Where package matrix stores one heap-allocated bitvec.Vector per row,
// bitmat packs every row into a single contiguous []uint64 with the row
// stride rounded up to a whole cache line (8 words = 64 bytes). Row i
// occupies words [i*stride, i*stride+words); the remaining stride-words
// padding words are always zero, which lets the distance kernels iterate
// the full stride in unrolled, remainder-free blocks without changing
// any popcount. Per-row norms |R_i| are precomputed at construction, so
// the triangle-inequality bound d(a,b) >= ||a|-|b|| is available to
// prune candidates before any XOR+popcount work.
//
// The arena is built once per grouping run (packed from core's CSR
// snapshot, or from a row slice) and shared by every backend: the
// Role Diet inverted index walks RowWords, DBSCAN region queries go
// through the norm-pruned NeighborsInto/NeighborsAppend kernels, HNSW
// computes distances between stored ids with Hamming(i,j) instead of
// chasing per-node vector pointers, and bit-sampling LSH verifies
// candidates with HammingAtMost.
package bitmat

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/matrix"
)

const (
	wordBits  = 64
	wordShift = 6
	wordMask  = wordBits - 1
	// lineWords is the row stride granularity: 8 words = one 64-byte
	// cache line, so consecutive rows never share a line and the
	// unrolled kernels never need a remainder loop.
	lineWords = 8
)

// Matrix is a dense bit matrix stored as one contiguous word arena.
// The zero value is an empty 0x0 matrix.
type Matrix struct {
	bits   []uint64
	norms  []int32
	rows   int
	cols   int
	words  int // words of payload per row: ceil(cols/64)
	stride int // words per row in the arena: words rounded up to lineWords
}

// strideFor returns the arena stride for a row of the given word count.
func strideFor(words int) int {
	return (words + lineWords - 1) / lineWords * lineWords
}

// New returns an all-zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitmat: negative shape %dx%d", rows, cols))
	}
	if rows > math.MaxInt32 {
		panic(fmt.Sprintf("bitmat: %d rows overflow int32 ids", rows))
	}
	words := (cols + wordBits - 1) >> wordShift
	stride := strideFor(words)
	return &Matrix{
		bits:   make([]uint64, rows*stride),
		norms:  make([]int32, rows),
		rows:   rows,
		cols:   cols,
		words:  words,
		stride: stride,
	}
}

// FromCSR packs a CSR matrix into a fresh arena of the same shape. It
// writes the words directly and popcounts each row once, rather than
// paying Set's checks and norm update per bit.
func FromCSR(c *matrix.CSR) *Matrix {
	m := New(c.Rows(), c.Cols())
	for i := 0; i < c.Rows(); i++ {
		row := m.bits[i*m.stride : i*m.stride+m.words]
		for _, j := range c.RowCols(i) {
			m.checkCol(j)
			row[j>>wordShift] |= 1 << (uint(j) & wordMask)
		}
		n := 0
		for _, w := range row {
			n += bits.OnesCount64(w)
		}
		m.norms[i] = int32(n)
	}
	return m
}

// FromRows packs the given row vectors into a fresh arena. All rows must
// share the same length.
func FromRows(rows []*bitvec.Vector) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	cols := rows[0].Len()
	for i, r := range rows {
		if r.Len() != cols {
			return nil, fmt.Errorf("bitmat: row %d has length %d, want %d", i, r.Len(), cols)
		}
	}
	m := New(len(rows), cols)
	for i, r := range rows {
		dst := m.bits[i*m.stride:]
		n := int32(0)
		for j, w := range r.Words() {
			dst[j] = w
			n += int32(bits.OnesCount64(w))
		}
		m.norms[i] = n
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns (bits per row).
func (m *Matrix) Cols() int { return m.cols }

// Words returns the number of payload words per row.
func (m *Matrix) Words() int { return m.words }

// checkRow panics if i is out of range.
func (m *Matrix) checkRow(i int) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("bitmat: row %d out of range [0,%d)", i, m.rows))
	}
}

// checkCol panics if j is out of range.
func (m *Matrix) checkCol(j int) {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("bitmat: column %d out of range [0,%d)", j, m.cols))
	}
}

// Get reports whether cell (i, j) is set.
func (m *Matrix) Get(i, j int) bool {
	m.checkRow(i)
	m.checkCol(j)
	return m.bits[i*m.stride+j>>wordShift]&(1<<(uint(j)&wordMask)) != 0
}

// Set sets cell (i, j) to 1, keeping the row norm current.
func (m *Matrix) Set(i, j int) {
	m.checkRow(i)
	m.checkCol(j)
	w := &m.bits[i*m.stride+j>>wordShift]
	mask := uint64(1) << (uint(j) & wordMask)
	if *w&mask == 0 {
		*w |= mask
		m.norms[i]++
	}
}

// Clear sets cell (i, j) to 0, keeping the row norm current.
func (m *Matrix) Clear(i, j int) {
	m.checkRow(i)
	m.checkCol(j)
	w := &m.bits[i*m.stride+j>>wordShift]
	mask := uint64(1) << (uint(j) & wordMask)
	if *w&mask != 0 {
		*w &^= mask
		m.norms[i]--
	}
}

// Norm returns the number of set bits in row i (|R_i|).
func (m *Matrix) Norm(i int) int {
	m.checkRow(i)
	return int(m.norms[i])
}

// Norms exposes the per-row norms. The slice aliases the matrix storage;
// callers must treat it as read-only.
func (m *Matrix) Norms() []int32 { return m.norms }

// RowView returns row i's full stride (payload plus zero padding),
// aliasing the arena. Callers must treat it as read-only.
func (m *Matrix) RowView(i int) []uint64 {
	m.checkRow(i)
	s := m.stride
	return m.bits[i*s : i*s+s : i*s+s]
}

// RowWords returns row i's payload words (no padding), aliasing the
// arena. Callers must treat it as read-only.
func (m *Matrix) RowWords(i int) []uint64 {
	m.checkRow(i)
	s := m.stride
	return m.bits[i*s : i*s+m.words : i*s+m.words]
}

// RowEqual reports whether rows i and j hold identical bits.
func (m *Matrix) RowEqual(i, j int) bool {
	if m.norms[i] != m.norms[j] {
		return false
	}
	a := m.RowView(i)
	b := m.RowView(j)
	for k, w := range a {
		if w != b[k] {
			return false
		}
	}
	return true
}

// RowHash returns a 64-bit mixing hash over row i's words. Equal rows
// always hash equally; it is only a bucketing aid, so it does not match
// bitvec.Vector.Hash.
func (m *Matrix) RowHash(i int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range m.RowWords(i) {
		h ^= w
		h *= prime64
		h ^= h >> 29
	}
	h ^= uint64(m.cols)
	h *= prime64
	return h
}

// Hamming returns the Hamming distance between rows i and j. The loop
// runs over the padded stride in 4-word groups: padding is zero on both
// sides, so it never contributes to the count, and the stride being a
// multiple of 8 words means there is no remainder loop.
func (m *Matrix) Hamming(i, j int) int {
	m.checkRow(i)
	m.checkRow(j)
	s := m.stride
	a := m.bits[i*s : i*s+s : i*s+s]
	b := m.bits[j*s : j*s+s : j*s+s]
	b = b[:len(a)]
	total := 0
	for k := 0; k+4 <= len(a); k += 4 {
		total += bits.OnesCount64(a[k]^b[k]) +
			bits.OnesCount64(a[k+1]^b[k+1]) +
			bits.OnesCount64(a[k+2]^b[k+2]) +
			bits.OnesCount64(a[k+3]^b[k+3])
	}
	return total
}

// HammingAtMost reports whether Hamming(i, j) <= k, first applying the
// norm bound ||a|-|b|| and then short-circuiting the word loop as soon
// as the running count exceeds k.
func (m *Matrix) HammingAtMost(i, j, k int) bool {
	m.checkRow(i)
	m.checkRow(j)
	if k < 0 {
		return false
	}
	d := int(m.norms[i]) - int(m.norms[j])
	if d < 0 {
		d = -d
	}
	if d > k {
		return false
	}
	s := m.stride
	a := m.bits[i*s : i*s+s : i*s+s]
	b := m.bits[j*s : j*s+s : j*s+s]
	b = b[:len(a)]
	total := 0
	for w, aw := range a {
		total += bits.OnesCount64(aw ^ b[w])
		if total > k {
			return false
		}
	}
	return true
}

// Intersection returns the co-occurrence count g(i, j) = |R_i AND R_j|.
func (m *Matrix) Intersection(i, j int) int {
	m.checkRow(i)
	m.checkRow(j)
	s := m.stride
	a := m.bits[i*s : i*s+s : i*s+s]
	b := m.bits[j*s : j*s+s : j*s+s]
	b = b[:len(a)]
	total := 0
	for k := 0; k+4 <= len(a); k += 4 {
		total += bits.OnesCount64(a[k]&b[k]) +
			bits.OnesCount64(a[k+1]&b[k+1]) +
			bits.OnesCount64(a[k+2]&b[k+2]) +
			bits.OnesCount64(a[k+3]&b[k+3])
	}
	return total
}

// blockRowsFor sizes a row block so the block's arena footprint stays
// around 32 KiB — comfortably inside L1d — while query rows of the
// query block stay resident alongside it.
func (m *Matrix) blockRowsFor() int {
	if m.stride == 0 {
		return 1 << 12
	}
	rows := (32 << 10) / (m.stride * 8)
	if rows < 16 {
		rows = 16
	}
	return rows
}

// queryBlock is the number of query rows processed per tile so their
// packed words stay hot while a row block streams past them.
const queryBlock = 8

// HammingBlock computes all distances between the query rows and the
// row range [lo, hi), tiled query-block x row-block so packed words are
// reused out of L1/L2 instead of re-streamed from memory per query.
// dst must have room for len(queries)*(hi-lo) entries; the distance
// between queries[qi] and row j lands in dst[qi*(hi-lo)+(j-lo)].
func (m *Matrix) HammingBlock(dst []int32, queries []int32, lo, hi int) {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("bitmat: block range [%d,%d) out of bounds for %d rows", lo, hi, m.rows))
	}
	width := hi - lo
	if need := len(queries) * width; len(dst) < need {
		panic(fmt.Sprintf("bitmat: HammingBlock dst length %d < %d", len(dst), need))
	}
	blockRows := m.blockRowsFor()
	s := m.stride
	for qlo := 0; qlo < len(queries); qlo += queryBlock {
		qhi := qlo + queryBlock
		if qhi > len(queries) {
			qhi = len(queries)
		}
		for blo := lo; blo < hi; blo += blockRows {
			bhi := blo + blockRows
			if bhi > hi {
				bhi = hi
			}
			for qi := qlo; qi < qhi; qi++ {
				q := int(queries[qi])
				m.checkRow(q)
				a := m.bits[q*s : q*s+s : q*s+s]
				out := dst[qi*width+(blo-lo) : qi*width+(bhi-lo)]
				for j := blo; j < bhi; j++ {
					b := m.bits[j*s : j*s+s : j*s+s]
					b = b[:len(a)]
					total := 0
					for k := 0; k+4 <= len(a); k += 4 {
						total += bits.OnesCount64(a[k]^b[k]) +
							bits.OnesCount64(a[k+1]^b[k+1]) +
							bits.OnesCount64(a[k+2]^b[k+2]) +
							bits.OnesCount64(a[k+3]^b[k+3])
					}
					out[j-blo] = int32(total)
				}
			}
		}
	}
}

// NeighborsAppend appends to dst the ids of every row j in [lo, hi)
// with Hamming(p, j) <= kmax, in ascending order, including j == p when
// in range. The norm bound ||R_p|-|R_j|| > kmax skips candidates before
// any XOR+popcount work — the DBSCAN candidate-pruning pre-pass.
func (m *Matrix) NeighborsAppend(dst []int32, p, lo, hi, kmax int) []int32 {
	m.checkRow(p)
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("bitmat: neighbor range [%d,%d) out of bounds for %d rows", lo, hi, m.rows))
	}
	if kmax < 0 {
		return dst
	}
	s := m.stride
	norms := m.norms
	np := int(norms[p])
	a := m.bits[p*s : p*s+s : p*s+s]
	for j := lo; j < hi; j++ {
		d := np - int(norms[j])
		if d < 0 {
			d = -d
		}
		if d > kmax {
			continue
		}
		b := m.bits[j*s : j*s+s : j*s+s]
		b = b[:len(a)]
		total := 0
		for k := 0; k+4 <= len(a); k += 4 {
			total += bits.OnesCount64(a[k]^b[k]) +
				bits.OnesCount64(a[k+1]^b[k+1]) +
				bits.OnesCount64(a[k+2]^b[k+2]) +
				bits.OnesCount64(a[k+3]^b[k+3])
		}
		if total <= kmax {
			dst = append(dst, int32(j))
		}
	}
	return dst
}

// NeighborsInto appends, for every query q = queries[qi], the ids of
// rows j in [lo, hi) with Hamming(q, j) <= kmax onto neigh[qi], in
// ascending order. It is the tiled multi-query form of NeighborsAppend
// used by the parallel DBSCAN neighborhood precompute: row blocks are
// scanned once per query block so the arena streams through cache a
// query-block at a time instead of once per query.
func (m *Matrix) NeighborsInto(neigh [][]int32, queries []int32, lo, hi, kmax int) {
	if len(neigh) < len(queries) {
		panic(fmt.Sprintf("bitmat: NeighborsInto neigh length %d < %d queries", len(neigh), len(queries)))
	}
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("bitmat: neighbor range [%d,%d) out of bounds for %d rows", lo, hi, m.rows))
	}
	if kmax < 0 {
		return
	}
	blockRows := m.blockRowsFor()
	s := m.stride
	norms := m.norms
	for qlo := 0; qlo < len(queries); qlo += queryBlock {
		qhi := qlo + queryBlock
		if qhi > len(queries) {
			qhi = len(queries)
		}
		for blo := lo; blo < hi; blo += blockRows {
			bhi := blo + blockRows
			if bhi > hi {
				bhi = hi
			}
			for qi := qlo; qi < qhi; qi++ {
				p := int(queries[qi])
				m.checkRow(p)
				np := int(norms[p])
				a := m.bits[p*s : p*s+s : p*s+s]
				out := neigh[qi]
				for j := blo; j < bhi; j++ {
					d := np - int(norms[j])
					if d < 0 {
						d = -d
					}
					if d > kmax {
						continue
					}
					b := m.bits[j*s : j*s+s : j*s+s]
					b = b[:len(a)]
					total := 0
					for k := 0; k+4 <= len(a); k += 4 {
						total += bits.OnesCount64(a[k]^b[k]) +
							bits.OnesCount64(a[k+1]^b[k+1]) +
							bits.OnesCount64(a[k+2]^b[k+2]) +
							bits.OnesCount64(a[k+3]^b[k+3])
					}
					if total <= kmax {
						out = append(out, int32(j))
					}
				}
				neigh[qi] = out
			}
		}
	}
}
