// Package rolediet implements the paper's custom algorithm (§III-C,
// "Our Algorithm") for finding groups of roles that share the same or
// similar sets of users/permissions.
//
// For roles Rⁱ, Rʲ with norms |Rⁱ| (assigned-user counts) and
// co-occurrence count g(i,j) (users assigned to both), the paper's
// indicator for an *exact* group is
//
//	I(i,j) = 1  iff  |Rⁱ| = g(i,j) = |Rʲ|,  i ≠ j
//
// which holds exactly when the two RUAM rows are identical. The *similar*
// case (same users ± a manually set threshold k) generalises through the
// identity Hamming(i,j) = |Rⁱ| + |Rʲ| − 2·g(i,j): two roles are similar
// iff that quantity is ≤ k.
//
// Rather than materialising the full r×r co-occurrence matrix C the
// implementation builds an inverted index (user → roles) and only visits
// pairs that share at least one user — the sparsity of real RBAC data is
// what delivers the paper's speedup over DBSCAN and HNSW. Pairs sharing
// no users are handled analytically: their Hamming distance is
// |Rⁱ|+|Rʲ|, so only roles with norms summing to ≤ k can pair, and those
// are unioned by norm bucket in linear time. Exact groups additionally
// get a hash-bucket fast path. The result is deterministic and complete:
// every qualifying pair is found, matching the paper's claim that the
// algorithm "consistently identifies all clusters without fail".
package rolediet

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitmat"
	"repro/internal/ctxcheck"
	"repro/internal/parallel"
)

// Options configures a grouping run.
type Options struct {
	// Threshold is the maximum number of differing users/permissions for
	// two roles to be considered similar. 0 means exact (identical rows),
	// matching inefficiency class 4; k ≥ 1 matches class 5.
	Threshold int
	// DisableExactHashFastPath forces the Threshold=0 case through the
	// general co-occurrence path. Used by the ablation benchmarks only.
	DisableExactHashFastPath bool
	// Workers fans the thresholded co-occurrence pass out over this many
	// goroutines. Values <= 1 run it as one chunk on the calling
	// goroutine; results (groups and PairsExamined) are identical at any
	// worker count. The exact hash pass is always serial.
	Workers int
	// Progress, when non-nil, receives (rowsDone, totalRows) from inside
	// the grouping loops on the same stride the context checker polls
	// cancellation, plus once at completion. rowsDone is monotonically
	// non-decreasing and the hook is never invoked concurrently. It must
	// be cheap.
	Progress func(done, total int) `json:"-"`
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Threshold < 0 {
		return fmt.Errorf("rolediet: negative threshold %d", o.Threshold)
	}
	return nil
}

// Result holds the discovered role groups.
type Result struct {
	// Groups lists each group as ascending role indices; groups are
	// ordered by their smallest member. Every group has >= 2 members.
	Groups [][]int
	// PairsExamined counts role pairs whose co-occurrence was actually
	// inspected — the work metric the inverted index minimises.
	PairsExamined int
}

// Run finds all groups of roles whose sparse rows are identical
// (opts.Threshold == 0) or within Hamming distance Threshold of a chain
// of group members (Threshold >= 1; connectivity semantics match the
// DBSCAN baseline so the methods are comparable). Each row lists its
// set columns in [0, cols), strictly ascending, as rbac.Dataset stores
// them. Norms are the row lengths, exact groups bucket by a hash of the
// column list, and the inverted index is built by walking the rows.
//
// Sparse rows are what let the algorithm scale to the paper's
// organisation-size dataset (§IV-B): a dense RUAM/RPAM would need
// hundreds of megabytes to gigabytes, while the rows plus the inverted
// index stay proportional to the number of assignment edges.
//
// The hot loops poll ctx every few thousand rows / co-occurrence
// expansions and abort with ctx.Err(), discarding partial groups.
//
// The run's working arrays come from a pool and go back to it once the
// run succeeds, so repeated runs allocate little beyond their Result.
func Run(ctx context.Context, cols int, rows [][]int32, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return &Result{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ws := getWorkspace()
	return ws.done(ws.run(ctx, cols, rows, opts))
}

// run is Run's grouping pass over ws's arrays.
func (ws *workspace) run(ctx context.Context, cols int, rows [][]int32, opts Options) (*Result, error) {
	if opts.Threshold == 0 && !opts.DisableExactHashFastPath {
		keys := ws.columnKeys(cols)
		return ws.exactGroupsFlat(ctx, opts.Progress, len(rows),
			func(i int) uint64 { return hashRow(rows[i], keys) },
			func(i, j int) bool { return slices.Equal(rows[i], rows[j]) })
	}
	norms := resize(ws.norms, len(rows))
	for i, r := range rows {
		norms[i] = len(r)
	}
	ws.norms = norms
	rowCols := func(i int, emit func(col int)) {
		for _, j := range rows[i] {
			emit(int(j))
		}
	}
	return ws.similarGroups(ctx, cols, norms, rowCols, opts)
}

// GroupsMat is Run over a bit-matrix arena instead of sparse rows: row
// hashing and equality are word compares, norms come precomputed. It
// remains only for the end-to-end benchmark, which replays this arena
// lane; the engine and every other caller run Run.
func GroupsMat(m *bitmat.Matrix, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if m.Rows() == 0 {
		return &Result{}, nil
	}
	ctx := context.Background()
	ws := getWorkspace()
	if opts.Threshold == 0 && !opts.DisableExactHashFastPath {
		return ws.done(ws.exactGroupsFlat(ctx, opts.Progress, m.Rows(), m.RowHash, m.RowEqual))
	}
	norms := resize(ws.norms, m.Rows())
	for i, v := range m.Norms() {
		norms[i] = int(v)
	}
	ws.norms = norms
	return ws.done(ws.similarGroups(ctx, m.Cols(), norms, matRowCols(m), opts))
}

// columnKeys returns one pseudo-random 64-bit key per column: the
// splitmix64 finalizer of the column index. The workspace's table is
// extended to cols, never rebuilt. A table beats computing the key
// inline, which made the exact pass at 10,000 roles about 40% slower.
func (ws *workspace) columnKeys(cols int) []uint64 {
	if have := len(ws.keys); have < cols {
		ws.keys = slices.Grow(ws.keys, cols-have)[:cols]
		for j := have; j < cols; j++ {
			z := uint64(j) + 0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			ws.keys[j] = z ^ (z >> 31)
		}
	}
	return ws.keys[:cols]
}

// hashRow hashes a row's column set as the sum of its columns' keys
// (Zobrist hashing). The per-column terms are independent table loads,
// so they pipeline rather than forming one dependency chain. The exact
// pass splits buckets by true equality, so a collision can cost a
// comparison but never a group.
func hashRow(cols []int32, keys []uint64) uint64 {
	h := uint64(0)
	for _, j := range cols {
		h += keys[j]
	}
	return h
}

// groupStride is the shared loop stride: the context is polled and the
// progress hook invoked once per this many ticks of the hot loops.
const groupStride = 1024

// exactGroupsFlat buckets rows by hash and splits buckets by true
// equality (so hash collisions can never merge distinct rows), with the
// per-bucket state held in flat int32 chain arrays instead of per-bucket
// heap objects: one map entry per distinct hash plus the chain arrays,
// all the workspace's, versus the old map-of-struct layout's per-row
// slice churn. hash and equal abstract the row storage — the arena's
// word compares for the dense path, sorted column lists for sparse
// rows.
func (ws *workspace) exactGroupsFlat(ctx context.Context, progFn func(done, total int), n int, hash func(i int) uint64, equal func(i, j int) bool) (*Result, error) {
	const none = int32(-1)
	chk := ctxcheck.New(ctx, groupStride)
	prog := parallel.NewProgress(progFn, n, 1)
	tick := prog.Ticker(0, groupStride)
	// heads maps a hash to the first representative row seen under it;
	// repNext chains further representatives (distinct rows, same hash)
	// in insertion order, so PairsExamined counts exactly the
	// comparisons the old bucket walk made.
	if ws.heads == nil {
		ws.heads = make(map[uint64]int32, n)
	}
	heads := ws.heads
	clear(heads)
	repNext, rep := resize(ws.repNext, n), resize(ws.rep, n)
	ws.repNext, ws.rep = repNext, rep
	pairs := 0
	for i := 0; i < n; i++ {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		tick.Tick(i)
		repNext[i] = none
		h := hash(i)
		r, ok := heads[h]
		if !ok {
			heads[h] = int32(i)
			rep[i] = int32(i)
			continue
		}
		last := r
		placed := false
		for ; r != none; r = repNext[r] {
			pairs++
			if equal(int(r), i) {
				rep[i] = r
				placed = true
				break
			}
			last = r
		}
		if !placed {
			repNext[last] = int32(i)
			rep[i] = int32(i)
		}
	}
	prog.Finish()
	return &Result{Groups: ws.groupsOf(n, func(i int) int { return int(rep[i]) }), PairsExamined: pairs}, nil
}

// groupsOf materialises the classes of two rows or more of a partition
// of n rows, root(i) being row i's class representative in [0, n). A
// counting pass over the workspace's counters sizes each group, so each
// is allocated once, at its size. Walking rows in ascending order
// yields ascending members per group and groups ordered by their
// smallest member.
func (ws *workspace) groupsOf(n int, root func(i int) int) [][]int {
	const none = int32(-1)
	cnt, gidx := resize(ws.cnt, n), resize(ws.gidx, n)
	ws.cnt, ws.gidx = cnt, gidx
	clear(cnt)
	for i := 0; i < n; i++ {
		cnt[root(i)]++
	}
	for i := range gidx {
		gidx[i] = none
	}
	var groups [][]int
	for i := 0; i < n; i++ {
		r := root(i)
		if cnt[r] < 2 {
			continue
		}
		if gidx[r] == none {
			gidx[r] = int32(len(groups))
			groups = append(groups, make([]int, 0, cnt[r]))
		}
		groups[gidx[r]] = append(groups[gidx[r]], i)
	}
	return groups
}

// pair is one qualifying (i, j) role pair found by a worker.
type pair struct {
	a, b int32
}

// similarGroups is the thresholded grouping pass: union-find
// connectivity over the "Hamming <= k" relation. Rows are abstracted
// behind the rowCols accessor, so the dense arena and sparse rows share one
// inverted index, chunked fan-out, workspace and merge.
//
// The inverted index is built with the deterministic two-pass layout,
// then the role range is split into contiguous chunks (one chunk, run
// on the calling goroutine, at Workers <= 1). Each worker owns one of
// the workspace's co-occurrence scratches and emits the qualifying
// pairs for its chunk into it. Each posting walk starts past the row,
// at the worker's cursor into the column, so a row only ever visits its
// partners j > row. Pairs are merged into the workspace's union-find
// at the end. Each worker polls the context independently (checkers
// are not shared, so the fan-out stays race-free) and abandons its
// chunk once cancelled; the merge step then discards all partial work
// and returns ctx.Err().
func (ws *workspace) similarGroups(ctx context.Context, width int, norms []int, rowCols func(i int, emit func(col int)), opts Options) (*Result, error) {
	n, k := len(norms), opts.Threshold
	chunks := parallel.SplitRange(n, parallel.Workers(opts.Workers, n))
	postings, start, first := ws.buildColIndex(n, width, len(chunks), rowCols)
	prog := parallel.NewProgress(opts.Progress, n, len(chunks))
	if len(ws.diet) < len(chunks) {
		ws.diet = append(ws.diet, make([]dietScratch, len(chunks)-len(ws.diet))...)
	}

	// Each worker processes a contiguous chunk of role indices and
	// collects qualifying pairs in its own scratch; no shared mutable
	// state.
	examined := make([]int, len(chunks))
	err := parallel.ForEachChunk(ctx, chunks, groupStride, func(w int, c parallel.Chunk, chk *ctxcheck.Checker) error {
		s := ws.scratch(w, n)
		counts, touched, local := s.counts, s.touched, s.pairs
		tick := prog.Ticker(w, groupStride)
		// cur[u] is the position of the row being expanded in column
		// u's postings; the walk starts just past it.
		cur := first[w*width : (w+1)*width]
		pairs := 0
		// One tick per set column: each expands a full posting list,
		// so per-tick work is substantial and cancellation stays
		// prompt. After a failed tick the expand callback goes inert,
		// so the remainder of the row is a cheap no-op walk. expand is
		// hoisted out of the row loop (row/tickErr flow through
		// captured variables) so the closure is allocated once per
		// chunk, not once per row.
		var tickErr error
		row := 0
		expand := func(u int) {
			if tickErr != nil {
				return
			}
			if tickErr = chk.Tick(); tickErr != nil {
				return
			}
			tick.Tick(row - c.Lo)
			cur[u]++
			for _, j := range postings[cur[u]:start[u+1]] {
				if counts[j] == 0 {
					touched = append(touched, j)
				}
				counts[j]++
			}
		}
		for i := c.Lo; i < c.Hi; i++ {
			row = i
			rowCols(i, expand)
			if tickErr != nil {
				// Abandon the chunk: counts still holds nonzero
				// residue, so the run drops its workspace.
				return tickErr
			}
			ni := norms[i]
			for _, j := range touched {
				g := int(counts[j])
				counts[j] = 0
				pairs++
				// Hamming(i,j) = |Ri| + |Rj| - 2 g(i,j).
				if ni+norms[j]-2*g <= k {
					local = append(local, pair{a: int32(i), b: j})
				}
			}
			touched = touched[:0]
		}
		tick.Flush(c.Len())
		s.touched, s.pairs = touched, local
		examined[w] = pairs
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Serial merge. Chunks are visited in order, so PairsExamined and
	// the union sequence do not depend on the worker count.
	uf := &ws.uf
	uf.reset(n)
	total := 0
	for w := range chunks {
		total += examined[w]
		for _, p := range ws.diet[w].pairs {
			uf.union(int(p.a), int(p.b))
		}
	}

	// Pairs sharing no users have g = 0 and Hamming = |Ri| + |Rj|; only
	// roles with small norms can qualify. Union the norm buckets whose
	// sums stay within k — this also re-unions sharing pairs harmlessly,
	// since sharing only shrinks the distance further. At k = 0 this
	// reduces to grouping the all-zero rows, which are identical to each
	// other yet invisible to the inverted index.
	bucketByNorm := make([][]int, k+1)
	for i, nrm := range norms {
		if nrm <= k {
			bucketByNorm[nrm] = append(bucketByNorm[nrm], i)
		}
	}
	for na := 0; na <= k; na++ {
		for nb := na; na+nb <= k; nb++ {
			joinBuckets(uf, bucketByNorm[na], bucketByNorm[nb], na == nb)
		}
	}

	prog.Finish()
	return &Result{Groups: ws.groupsOf(n, uf.find), PairsExamined: total}, nil
}

// joinBuckets unions every element of a with every element of b. Since
// union is transitive it suffices to chain each bucket internally and
// then bridge the two representatives.
func joinBuckets(uf *unionFind, a, b []int, same bool) {
	if len(a) == 0 || len(b) == 0 {
		return
	}
	if same && len(a) < 2 {
		return
	}
	for i := 1; i < len(a); i++ {
		uf.union(a[0], a[i])
	}
	for i := 1; i < len(b); i++ {
		uf.union(b[0], b[i])
	}
	uf.union(a[0], b[0])
}

// sortGroups sorts members ascending and groups by smallest member.
func sortGroups(groups [][]int) {
	for _, g := range groups {
		sort.Ints(g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
}

// unionFind is a weighted quick-union with path halving.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := new(unionFind)
	uf.reset(n)
	return uf
}

// reset makes u n singletons, reusing its arrays.
func (u *unionFind) reset(n int) {
	u.parent, u.size = resize(u.parent, n), resize(u.size, n)
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
