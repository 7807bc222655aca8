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
// index is three arrays (the offsets, the postings and the counters)
// whatever the width, with no per-column slice header. All three are
// the workspace's, valid until its next index build.
//
// first holds, per worker and column, the position of the worker's
// first row in the column's postings: worker w's rows of column j start
// at first[w*width+j]. Since a chunk's rows visit their columns in
// ascending row order, a walk that advances this cursor once per visit
// always finds the visiting row under it.
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
func (ws *workspace) buildColIndex(n, width, workers int, rowCols func(i int, emit func(col int))) (flat, start, first []int32) {
	workers = parallel.Workers(workers, n)
	chunks := parallel.SplitRange(n, workers)
	// cursors is the per-worker counting array in pass 1, the
	// per-worker fill cursor in pass 2, and first once filled.
	cursors := resize(ws.cursors, len(chunks)*width)
	clear(cursors)
	ws.cursors = cursors

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
	// cursor where its rows of each column end.
	start = resize(ws.start, width+1)
	off := int32(0)
	for j := 0; j < width; j++ {
		start[j] = off
		for w := 0; w < len(chunks); w++ {
			off += cursors[w*width+j]
			cursors[w*width+j] = off
		}
	}
	start[width] = off
	flat = resize(ws.flat, int(off))
	ws.start, ws.flat = start, flat

	// Pass 2: fill, last row first, so each cursor ends at its worker's
	// first row. Workers write disjoint flat ranges, so no locks.
	_ = parallel.ForEachChunk(context.Background(), chunks, 0, func(w int, c parallel.Chunk, _ *ctxcheck.Checker) error {
		cur := cursors[w*width : (w+1)*width]
		row := 0
		emit := func(col int) {
			cur[col]--
			flat[cur[col]] = int32(row)
		}
		for i := c.Hi - 1; i >= c.Lo; i-- {
			row = i
			rowCols(i, emit)
		}
		return nil
	})
	return flat, start, cursors
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

// dietScratch is one worker's co-occurrence scratch: counts[j]
// accumulates g(i, j) for the current role i, touched lists the j's
// with nonzero counts so they can be reset in O(|touched|), and pairs
// gathers the worker's qualifying pairs. The invariant: between runs
// counts is all-zero over its full capacity, so a run never has to
// re-zero it; the row loop restores zeros row by row.
type dietScratch struct {
	counts  []int32
	touched []int32
	pairs   []pair
}

// workspace is one grouping run's working memory, kept in a pool so
// that one run's arrays serve the next: the Zobrist key table, the
// exact pass's hash heads and chains, the inverted index, the norms,
// the workers' co-occurrence scratch, the union-find and groupsOf's
// counters. Every array is resized to the run at hand; none of it is
// part of a Result. A run that fails or is cancelled drops its
// workspace instead of pooling it, since its scratch may hold residue.
type workspace struct {
	// keys[j] is column j's Zobrist key. Keys depend only on the
	// column index, so the table only grows.
	keys []uint64
	// The exact pass: the first representative per hash, and per row
	// its representative and the next representative in its chain.
	heads        map[uint64]int32
	rep, repNext []int32
	// The thresholded pass.
	norms                []int
	flat, start, cursors []int32
	diet                 []dietScratch
	uf                   unionFind
	// groupsOf's per-root member counts and group indices.
	cnt, gidx []int32
}

var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

// getWorkspace takes a workspace from the pool.
func getWorkspace() *workspace { return workspacePool.Get().(*workspace) }

// done pools ws after a successful run and drops it after a failed
// one, passing the run's outcome through.
func (ws *workspace) done(res *Result, err error) (*Result, error) {
	if err == nil {
		workspacePool.Put(ws)
	}
	return res, err
}

// scratch returns worker w's scratch with counts of length n (all
// zero). ws.diet must already hold w.
func (ws *workspace) scratch(w, n int) *dietScratch {
	s := &ws.diet[w]
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	}
	s.counts = s.counts[:n]
	s.touched, s.pairs = s.touched[:0], s.pairs[:0]
	return s
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are whatever the array held: callers that need
// zeros clear it.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
