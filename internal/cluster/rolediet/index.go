package rolediet

import (
	"context"
	"math/bits"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/ctxcheck"
	"repro/internal/parallel"
)

// buildColIndex builds the inverted index (column -> ascending role
// ids) with a two-pass exact-size layout: a counting pass sizes every
// posting list, then one flat []int32 backs all of them and a fill
// pass writes each posting exactly once. Compared to the old
// append-grown [][]int32 this trades a second walk over the matrix for
// the elimination of per-column reallocation/copy churn — two
// allocations total instead of O(width·log(postings)) — which is where
// most of the grouping hot path's allocs/op used to go.
//
// With workers > 1 both passes fan out over contiguous row chunks.
// The layout stays fully deterministic: worker w owns rows
// [chunk.Lo, chunk.Hi), every row chunk is filled at per-worker
// per-column cursors that start where the previous worker's rows end,
// so each posting list comes out in ascending row order exactly as the
// serial build produces it.
//
// rowCols must invoke emit once per set column of row i, in any order
// (ascending for CSR and arena rows, but the index does not rely on it
// within a row since a row appears once per column it owns).
func buildColIndex(n, width, workers int, rowCols func(i int, emit func(col int))) [][]int32 {
	workers = parallel.Workers(workers, n)
	chunks := parallel.SplitRange(n, workers)
	// cursors doubles as the per-worker counting array in pass 1 and
	// the per-worker fill cursor in pass 2.
	cursors := make([]int32, len(chunks)*width)

	// Pass 1: count column degrees per worker chunk. The background
	// context keeps the pass uncancellable — it is a small, bounded
	// fraction of a grouping run, and callers poll their own checker
	// around it.
	_ = parallel.ForEachChunk(context.Background(), chunks, 0, func(w int, c parallel.Chunk, _ *ctxcheck.Checker) error {
		cnt := cursors[w*width : (w+1)*width]
		// emit is hoisted out of the row loop so the closure is
		// allocated once per chunk, not once per row.
		emit := func(col int) { cnt[col]++ }
		for i := c.Lo; i < c.Hi; i++ {
			rowCols(i, emit)
		}
		return nil
	})

	// Prefix pass: convert counts to absolute fill cursors and carve
	// the per-column posting lists out of one flat backing array.
	index := make([][]int32, width)
	flatLen := 0
	for j := 0; j < width; j++ {
		for w := 0; w < len(chunks); w++ {
			flatLen += int(cursors[w*width+j])
		}
	}
	flat := make([]int32, flatLen)
	off := 0
	for j := 0; j < width; j++ {
		colTotal := 0
		for w := 0; w < len(chunks); w++ {
			cnt := int(cursors[w*width+j])
			cursors[w*width+j] = int32(off + colTotal)
			colTotal += cnt
		}
		index[j] = flat[off : off+colTotal : off+colTotal]
		off += colTotal
	}

	// Pass 2: fill. Workers write disjoint flat ranges, so no locks.
	_ = parallel.ForEachChunk(context.Background(), chunks, 0, func(w int, c parallel.Chunk, _ *ctxcheck.Checker) error {
		cur := cursors[w*width : (w+1)*width]
		row := 0
		emit := func(col int) {
			flat[cur[col]] = int32(row)
			cur[col]++
		}
		for i := c.Lo; i < c.Hi; i++ {
			row = i
			rowCols(i, emit)
		}
		return nil
	})
	return index
}

// matRowCols adapts arena rows to buildColIndex's accessor. It walks
// the packed words of the contiguous arena directly so the index build
// streams memory linearly and no per-row wrapper closure is allocated:
// emit is forwarded as-is.
func matRowCols(m *bitmat.Matrix) func(i int, emit func(col int)) {
	return func(i int, emit func(col int)) {
		for wi, w := range m.RowWords(i) {
			base := wi * 64
			for w != 0 {
				emit(base + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
}

// dietScratch is the per-run (or per-worker) co-occurrence scratch:
// counts[j] accumulates g(i, j) for the current role i, touched lists
// the j's with nonzero counts so they can be reset in O(|touched|).
type dietScratch struct {
	counts  []int32
	touched []int32
}

// scratchPool recycles dietScratch values across grouping runs and
// across the parallel pass's workers. The pool invariant: every
// pooled counts slice is all-zero over its full capacity, so getScratch
// never has to re-zero — the grouping loop restores zeros row by row,
// and error paths simply drop their scratch instead of returning it.
var scratchPool = sync.Pool{New: func() any { return new(dietScratch) }}

// getScratch returns a scratch whose counts has length n (all zero).
func getScratch(n int) *dietScratch {
	s := scratchPool.Get().(*dietScratch)
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	} else {
		s.counts = s.counts[:n]
	}
	if s.touched == nil {
		s.touched = make([]int32, 0, 64)
	}
	s.touched = s.touched[:0]
	return s
}

// putScratch returns s to the pool. Only call it when counts is back
// to all-zero (the row loop's invariant after a successful run); on
// cancellation or error, drop the scratch on the floor instead.
func putScratch(s *dietScratch) {
	scratchPool.Put(s)
}
