// Package bitvec implements fixed-length bit vectors with word-parallel
// set algebra and counting operations.
//
// A Vector is one dense row of an RBAC assignment matrix: bit j of a
// role's row is 1 iff the role is assigned user (or permission) j. The
// analysis engine, the §IV-A generator and role mining hold rows as
// sorted []int32 column lists instead; vectors remain the rows of
// rbac.Dataset.RUAM/RPAM and the input of bitmat.FromRows, which the
// benchmark module's replay still reads, and the testkit oracle's row
// form. Norms, co-occurrences g(i,j) and Hamming distances reduce to
// popcounts over AND/XOR of packed words.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	// wordBits is the number of bits per storage word.
	wordBits = 64
	// wordShift is log2(wordBits), used for index arithmetic.
	wordShift = 6
	// wordMask extracts the in-word bit offset from a bit index.
	wordMask = wordBits - 1
)

// Vector is a fixed-length sequence of bits packed into 64-bit words.
// The zero value is an empty vector of length 0; use New to create a
// vector with capacity for a given number of bits.
//
// Methods that combine two vectors (Hamming, IntersectionCount, ...)
// require both operands to have the same length and panic otherwise:
// mixing row widths is a programming error, not a runtime condition.
type Vector struct {
	words []uint64
	n     int
}

// New returns a Vector holding n bits, all zero.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{
		words: make([]uint64, wordsFor(n)),
		n:     n,
	}
}

// FromIndices builds a Vector of length n with the given bit positions set.
// Indices outside [0, n) cause a panic.
func FromIndices(n int, indices []int) *Vector {
	v := New(n)
	for _, i := range indices {
		v.Set(i)
	}
	return v
}

// wordsFor returns the number of 64-bit words needed to hold n bits.
func wordsFor(n int) int {
	return (n + wordBits - 1) >> wordShift
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// checkIndex panics if i is out of range.
func (v *Vector) checkIndex(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.checkIndex(i)
	v.words[i>>wordShift] |= 1 << (uint(i) & wordMask)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.checkIndex(i)
	v.words[i>>wordShift] &^= 1 << (uint(i) & wordMask)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.checkIndex(i)
	return v.words[i>>wordShift]&(1<<(uint(i)&wordMask)) != 0
}

// Count returns the number of set bits (the vector's norm |R| in the
// paper's notation).
func (v *Vector) Count() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	out := &Vector{
		words: make([]uint64, len(v.words)),
		n:     v.n,
	}
	copy(out.words, v.words)
	return out
}

// checkSameLen panics unless the two vectors have equal length.
func (v *Vector) checkSameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, o.n))
	}
}

// Equal reports whether the two vectors have identical length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// IntersectionCount returns |v AND o| without allocating: the number of
// positions set in both vectors. This is exactly the co-occurrence count
// g(i, j) from the paper when v and o are two role rows.
func (v *Vector) IntersectionCount(o *Vector) int {
	v.checkSameLen(o)
	total := 0
	for i, w := range v.words {
		total += bits.OnesCount64(w & o.words[i])
	}
	return total
}

// Hamming returns the Hamming distance |v XOR o| without allocating: the
// number of positions where the two vectors differ. For binary assignment
// rows this equals the number of distinct users (or permissions) between
// two roles, the similarity measure used by inefficiency class 5.
func (v *Vector) Hamming(o *Vector) int {
	v.checkSameLen(o)
	total := 0
	for i, w := range v.words {
		total += bits.OnesCount64(w ^ o.words[i])
	}
	return total
}

// HammingBatch computes dst[i] = Hamming(rows[i], q) for every row,
// with the word loop unrolled 4-way so the XOR+popcount pipeline stays
// full. This is the kernel behind the parallel DBSCAN region queries:
// one call evaluates a whole block of candidate distances against a
// query row without per-pair call overhead or allocation (dst is
// caller-provided scratch).
//
// It panics unless len(dst) >= len(rows) and every row matches q's
// length, consistent with the pairwise methods' mixing-widths-is-a-
// programming-error contract.
func HammingBatch(dst []int, rows []*Vector, q *Vector) {
	if len(dst) < len(rows) {
		panic(fmt.Sprintf("bitvec: HammingBatch dst length %d < %d rows", len(dst), len(rows)))
	}
	qw := q.words
	nw := len(qw)
	for i, r := range rows {
		q.checkSameLen(r)
		rw := r.words[:nw]
		total := 0
		j := 0
		for ; j+4 <= nw; j += 4 {
			total += bits.OnesCount64(rw[j]^qw[j]) +
				bits.OnesCount64(rw[j+1]^qw[j+1]) +
				bits.OnesCount64(rw[j+2]^qw[j+2]) +
				bits.OnesCount64(rw[j+3]^qw[j+3])
		}
		for ; j < nw; j++ {
			total += bits.OnesCount64(rw[j] ^ qw[j])
		}
		dst[i] = total
	}
}

// HammingAtMost reports whether Hamming(v, o) <= k, short-circuiting as
// soon as the running count exceeds k. For the similar-roles detector the
// threshold k is small (typically 1), so most comparisons abort within a
// word or two.
func (v *Vector) HammingAtMost(o *Vector, k int) bool {
	v.checkSameLen(o)
	if k < 0 {
		return false
	}
	total := 0
	for i, w := range v.words {
		total += bits.OnesCount64(w ^ o.words[i])
		if total > k {
			return false
		}
	}
	return true
}

// Indices returns the positions of all set bits in ascending order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		base := wi << wordShift
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for each set bit position in ascending order. It stops
// early if fn returns false.
func (v *Vector) ForEach(fn func(i int) bool) {
	for wi, w := range v.words {
		base := wi << wordShift
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// Words exposes the underlying packed words. The returned slice aliases
// the vector's storage; callers must treat it as read-only. Used by
// bitmat.FromRows to pack rows without re-walking bits.
func (v *Vector) Words() []uint64 { return v.words }

// Floats expands the vector into a []float64 of 0.0/1.0 values. The
// clustering baselines (DBSCAN with scikit-learn semantics, HNSW) operate
// on float vectors exactly as the paper's Python implementation does.
func (v *Vector) Floats() []float64 {
	out := make([]float64, v.n)
	v.ForEach(func(i int) bool {
		out[i] = 1.0
		return true
	})
	return out
}

// String renders the vector as a compact 0/1 string, e.g. "01101".
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Parse builds a Vector from a 0/1 string as produced by String.
func Parse(s string) (*Vector, error) {
	v := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			v.Set(i)
		case '0':
		default:
			return nil, fmt.Errorf("bitvec: invalid character %q at position %d", s[i], i)
		}
	}
	return v, nil
}
