// Package parallel provides the chunked fan-out primitive shared by
// every clustering backend's multi-core path.
//
// The pattern was first proven in rolediet's co-occurrence pass: split
// the work range into contiguous near-equal chunks, give each worker a
// private ctxcheck.Checker (Checkers are not safe for concurrent use,
// and independent polling means every worker stops within its own
// stride of a cancellation), collect per-chunk results without shared
// mutable state, and merge serially at the end. This package hoists
// that skeleton so dbscan and hnsw gain the same fan-out with
// the same cancellation semantics instead of re-deriving it.
//
// Progress aggregation across workers goes through Progress, which
// keeps the engine's hook contract — (done, total) with done
// monotonically non-decreasing — even though workers complete rows out
// of order.
package parallel

import (
	"context"
	"sync"

	"repro/internal/ctxcheck"
)

// Chunk is a half-open index range [Lo, Hi).
type Chunk struct {
	Lo, Hi int
}

// Len returns the number of indices in the chunk.
func (c Chunk) Len() int { return c.Hi - c.Lo }

// Workers normalises a worker-count knob for a job of the given size:
// the result is clamped to [1, items] so no worker ever starts with an
// empty range (items == 0 still yields 1 so SplitRange stays
// well-defined). requested <= 1 therefore always means one worker on
// the calling goroutine: a zero-valued Workers field is serial, never
// an implicit GOMAXPROCS fan-out.
func Workers(requested, items int) int {
	return max(1, min(requested, items))
}

// SplitRange divides [0, n) into at most parts contiguous chunks of
// near-equal size (the first n%parts chunks are one element longer).
func SplitRange(n, parts int) []Chunk {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([]Chunk, 0, parts)
	base := n / parts
	rem := n % parts
	lo := 0
	for p := 0; p < parts; p++ {
		size := base
		if p < rem {
			size++
		}
		out = append(out, Chunk{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// ForEachChunk runs fn once per chunk, each call on its own goroutine
// with a private context checker of the given stride (<= 0 selects
// ctxcheck.DefaultStride). It waits for every worker. If the context
// was cancelled it returns ctx.Err(), discarding whatever partial work
// the callers produced; otherwise it returns the first non-nil fn
// error in chunk order. The chunk index w is stable, so callers can
// write per-chunk results into pre-sized slices without locks.
func ForEachChunk(ctx context.Context, chunks []Chunk, stride int, fn func(w int, c Chunk, chk *ctxcheck.Checker) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(chunks) == 1 {
		// Single chunk: run on the calling goroutine, skipping the
		// fan-out machinery (the workers=1 overhead floor).
		if err := fn(0, chunks[0], ctxcheck.New(ctx, stride)); err != nil {
			return err
		}
		return ctx.Err()
	}
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for w, c := range chunks {
		w, c := w, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w, c, ctxcheck.New(ctx, stride))
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Progress fans one (done, total) hook out to many workers while
// preserving the hook contract: done is monotonically non-decreasing
// and the hook is never invoked concurrently. Workers report through
// per-worker Tickers, which amortise the shared mutex to one
// acquisition per stride ticks.
type Progress struct {
	mu        sync.Mutex
	fn        func(done, total int)
	total     int
	perWorker []int
	reported  int
}

// NewProgress builds an aggregator for the given hook over workers
// fan-out lanes. A nil fn yields a nil aggregator whose Tickers are
// free no-ops, so serial callers can use one lane unconditionally.
func NewProgress(fn func(done, total int), total, workers int) *Progress {
	if fn == nil {
		return nil
	}
	return &Progress{fn: fn, total: total, perWorker: make([]int, workers)}
}

// Ticker returns worker w's local ticker with the given flush stride
// (<= 0 selects ctxcheck.DefaultStride).
func (p *Progress) Ticker(w, stride int) *Ticker {
	if p == nil {
		return nil
	}
	if stride <= 0 {
		stride = ctxcheck.DefaultStride
	}
	return &Ticker{p: p, w: w, stride: stride}
}

// Finish reports completion: fn(total, total). Call it once, after
// every worker has returned.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.reported = p.total
	p.fn(p.total, p.total)
	p.mu.Unlock()
}

// Ticker is one worker's progress lane. Not safe for concurrent use;
// each worker gets its own.
type Ticker struct {
	p      *Progress
	w      int
	stride int
	n      int
}

// Tick records one unit of loop work with done items of this worker's
// chunk completed. Every stride-th call folds the worker's count into
// the aggregate and, if the global done advanced, invokes the hook.
func (t *Ticker) Tick(done int) {
	if t == nil {
		return
	}
	t.n++
	if t.n < t.stride {
		return
	}
	t.n = 0
	t.flush(done)
}

// Flush folds the worker's final count in without waiting for a stride
// boundary; call it when the worker finishes its chunk.
func (t *Ticker) Flush(done int) {
	if t == nil {
		return
	}
	t.flush(done)
}

func (t *Ticker) flush(done int) {
	p := t.p
	p.mu.Lock()
	if done > p.perWorker[t.w] {
		p.perWorker[t.w] = done
	}
	sum := 0
	for _, d := range p.perWorker {
		sum += d
	}
	if sum > p.total {
		sum = p.total
	}
	if sum > p.reported {
		p.reported = sum
		p.fn(sum, p.total)
	}
	p.mu.Unlock()
}
