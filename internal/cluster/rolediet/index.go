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
// ids) as one flat []int32 of postings plus width+1 offsets: column j's
// roles are flat[start[j]:start[j+1]]. A counting pass sizes every
// column, then a fill pass writes each posting exactly once, so the
// index is three allocations (the offsets, the postings and the
// counters) whatever the width, with no per-column slice header.
//
// With workers > 1 both passes fan out over contiguous row chunks.
// The layout stays fully deterministic: worker w owns rows
// [chunk.Lo, chunk.Hi), every row chunk is filled at per-worker
// per-column cursors that start where the previous worker's rows end,
// so each posting list comes out in ascending row order exactly as the
// serial build produces it.
//
// rowCols must invoke emit once per set column of row i, in any order
// (ascending for sparse and arena rows, but the index does not rely on it
// within a row since a row appears once per column it owns).
func buildColIndex(n, width, workers int, rowCols func(i int, emit func(col int))) (flat, start []int32) {
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

	// Prefix pass: column offsets, and per worker the absolute fill
	// cursor where its rows of each column begin.
	start = make([]int32, width+1)
	off := int32(0)
	for j := 0; j < width; j++ {
		start[j] = off
		for w := 0; w < len(chunks); w++ {
			cnt := cursors[w*width+j]
			cursors[w*width+j] = off
			off += cnt
		}
	}
	start[width] = off
	flat = make([]int32, off)

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
	return flat, start
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
