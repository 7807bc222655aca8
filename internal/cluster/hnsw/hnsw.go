// Package hnsw implements Hierarchical Navigable Small World graphs
// (Malkov & Yashunin, 2018) from scratch — the paper's "approximate
// clustering" baseline (§III-C/D).
//
// The index is a stack of proximity graphs. Each inserted element is
// assigned a maximum layer drawn from an exponential distribution; upper
// layers form an expressway of long links for greedy descent, while
// layer 0 contains every element with denser connectivity. A query
// greedily descends from the top-layer entry point to layer 1 with beam
// width 1, then runs a best-first beam search with width ef at layer 0.
//
// Matching the paper, the default distance is Manhattan (identical to
// Hamming on the binary assignment rows). Level assignment uses a seeded
// deterministic generator so benchmark runs are reproducible.
//
// Row storage is the caller's bitmat arena: nodes are plain adjacency
// records, and every distance is an XOR+popcount sweep over contiguous
// cache-line-padded rows. Beam searches run on pooled scratch — an
// epoch-stamped visited array instead of a per-call map, heaps and
// buffers that keep their capacity — so neither construction nor
// concurrent searches allocate per call. Run is the one entry point:
// build, one radius query per row, union.
package hnsw

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitmat"
	"repro/internal/ctxcheck"
	"repro/internal/metric"
	"repro/internal/parallel"
)

// Config carries the HNSW construction parameters. It is part of the
// analysis wire schema (core.GroupOptions embeds it as "hnsw"), so its
// field set is frozen.
type Config struct {
	// M is the target out-degree per node on upper layers. Layer 0
	// allows 2*M links, per the original paper. Defaults to 16.
	M int
	// EfConstruction is the beam width used while inserting. Larger
	// values yield better graphs at higher build cost. Defaults to 200,
	// the datasketch default used in the paper's implementation.
	EfConstruction int
	// EfSearch is kept for the wire schema and validated, but Run's
	// per-row query beam is Options.SearchEf.
	EfSearch int
	// Metric is the distance function: Manhattan (the default, matching
	// the paper's HNSW setup) or Hamming. On binary rows the two are the
	// same distance; Validate rejects every other kind.
	Metric metric.Kind
	// Seed seeds the level generator. The zero value selects seed 1 so
	// a zero Config is still deterministic.
	Seed int64
	// Heuristic enables the neighbour-selection heuristic from the HNSW
	// paper (algorithm 4) instead of picking the M closest candidates.
	// The heuristic keeps a candidate only if it is closer to the query
	// than to every already-kept neighbour, improving graph diversity on
	// clustered data — exactly the regime RBAC rows live in.
	Heuristic bool
}

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.Metric == 0 {
		c.Metric = metric.Manhattan
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate checks user-supplied parameter combinations.
func (c Config) Validate() error {
	if c.M < 0 || c.EfConstruction < 0 || c.EfSearch < 0 {
		return fmt.Errorf("hnsw: negative parameter (M=%d efConstruction=%d efSearch=%d)",
			c.M, c.EfConstruction, c.EfSearch)
	}
	if c.Metric != 0 && c.Metric != metric.Hamming && c.Metric != metric.Manhattan {
		return fmt.Errorf("hnsw: unsupported metric %v (want hamming or manhattan)", c.Metric)
	}
	return nil
}

// Options configures a grouping run.
type Options struct {
	// Config carries the index construction parameters.
	Config Config
	// Threshold is the maximum Hamming distance between two linked roles.
	Threshold int
	// SearchEf is the beam width of each role's radius query; defaults
	// to 64.
	SearchEf int
	// Workers fans index construction out over this many goroutines.
	// Values <= 1 insert every row in row order on the calling
	// goroutine, which is deterministic for a seed. With several
	// workers the link sets depend on insertion interleaving: the graph
	// remains a valid HNSW index with statistically equivalent recall,
	// it is just not bit-identical.
	Workers int
	// Progress, when non-nil, receives (rowsDone, totalRows) once per
	// radius query. It runs on the calling goroutine and must be cheap.
	Progress func(done, total int)
}

// Result holds the discovered role groups.
type Result struct {
	// Groups lists connected components of linked roles, members
	// ascending, groups ordered by smallest member, size >= 2.
	Groups [][]int
}

// Run mirrors the paper's §III-D use of the ANN index: build an index
// over all rows of the arena, query it once per row for the neighbours
// within Threshold, and union every hit. Recall is approximate by
// construction; precision is exact because hits are filtered by their
// true distance.
//
// The index shares the arena's storage, so every distance is an
// XOR+popcount sweep over contiguous rows and the run makes no
// per-distance allocations. The context is polled between insertions
// and between queries — each is a bounded beam search — so a run over
// an organisation-scale matrix aborts promptly with ctx.Err().
func Run(ctx context.Context, m *bitmat.Matrix, opts Options) (*Result, error) {
	if opts.Threshold < 0 {
		return nil, fmt.Errorf("hnsw: negative threshold %d", opts.Threshold)
	}
	idx, err := build(ctx, m, opts.Config, opts.Workers)
	if err != nil {
		return nil, err
	}
	ef := opts.SearchEf
	if ef <= 0 {
		ef = 64
	}
	n := m.Rows()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	radius := float64(opts.Threshold)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.Progress != nil {
			opts.Progress(i, n)
		}
		for _, h := range idx.searchRadiusRow(i, radius, ef) {
			if ra, rb := find(i), find(h.id); ra != rb {
				parent[rb] = ra
			}
		}
	}
	byRoot := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	var groups [][]int
	for _, g := range byRoot {
		if len(g) >= 2 {
			groups = append(groups, g)
		}
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return &Result{Groups: groups}, nil
}

// node is one element of the index: its per-layer adjacency lists.
// neighbours[l] lists the edges from this node at layer l; each edge
// carries the neighbour id and the (symmetric) distance to it, so the
// overflow re-selection in link never recomputes a distance the graph
// already knows — on organisation-scale builds those recomputations
// were a quarter of all kernel time. Nodes are stored by value in one
// slice; row storage lives in the shared arena, so inserting a node
// allocates no per-node box and distance evaluations chase no vector
// pointers.
type node struct {
	neighbours [][]candidate
}

// index is a hierarchical navigable small world graph over the rows of
// a bit-matrix arena, node id = row id. A built index is read-only, so
// concurrent searches are safe (each borrows its own scratch from a
// pool and the distance counter is atomic).
type index struct {
	cfg      Config
	mat      *bitmat.Matrix
	nodes    []node
	entry    int // id of the entry point, -1 when empty
	maxLayer int
	levelMul float64
	rng      *rand.Rand
	// locks guards each node's adjacency while several chunks build
	// the graph concurrently, and entryMu the entry point and top
	// layer. locks is nil when one chunk builds and once the index is
	// built: a single writer needs no lock.
	locks   []sync.Mutex
	entryMu sync.RWMutex
	// distCalls counts cumulative distance evaluations; atomic so
	// concurrent searches stay race-free.
	distCalls atomic.Int64
	scratch   sync.Pool // of *searchScratch
}

// build constructs the index over every row of m with the standard
// HNSW batch-construction scheme: every node's adjacency list is
// guarded by its own mutex, searches snapshot-copy the lists they
// traverse, and the entry point is swapped under a read-write lock.
//
// Levels are drawn up front from the seeded generator in row order, so
// the layer structure does not depend on workers. Row 0 seeds the
// graph as the entry point and the other rows are inserted in
// parallel.Workers(workers) contiguous chunks. A single chunk inserts
// them in row order on the calling goroutine, which makes the graph
// deterministic for a seed, and runs without the node locks; with
// several chunks the link sets depend on insertion interleaving (see
// Options.Workers). Each chunk polls
// the context between insertions and the build aborts with ctx.Err(),
// discarding the partial index. The index retains m.
func build(ctx context.Context, m *bitmat.Matrix, cfg Config, workers int) (*index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := m.Rows()
	x := &index{
		cfg:      cfg,
		mat:      m,
		nodes:    make([]node, n),
		entry:    -1,
		maxLayer: -1,
		levelMul: 1.0 / math.Log(float64(cfg.M)),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	if n == 0 {
		return x, nil
	}
	for i := range x.nodes {
		x.nodes[i].neighbours = make([][]candidate, x.randomLevel()+1)
	}
	x.entry, x.maxLayer = 0, len(x.nodes[0].neighbours)-1

	chunks := parallel.SplitRange(n-1, parallel.Workers(workers, n-1))
	if len(chunks) > 1 {
		x.locks = make([]sync.Mutex, n)
	}
	err := parallel.ForEachChunk(ctx, chunks, 1, func(_ int, c parallel.Chunk, chk *ctxcheck.Checker) error {
		s := &searchScratch{}
		for i := c.Lo; i < c.Hi; i++ {
			if err := chk.Tick(); err != nil {
				return err
			}
			x.insert(i+1, s)
		}
		return nil
	})
	x.locks = nil
	if err != nil {
		return nil, err
	}
	return x, nil
}

// Len returns the number of indexed rows.
func (x *index) Len() int { return len(x.nodes) }

// DistCalls returns the cumulative number of distance evaluations made
// during construction and searches.
func (x *index) DistCalls() int { return int(x.distCalls.Load()) }

// randomLevel draws the insertion layer: floor(-ln(U) * mL).
func (x *index) randomLevel() int {
	u := x.rng.Float64()
	for u == 0 { // avoid +Inf
		u = x.rng.Float64()
	}
	return int(-math.Log(u) * x.levelMul)
}

// maxNeighbours is the degree bound at a layer (2M at layer 0, M above).
func (x *index) maxNeighbours(layer int) int {
	if layer == 0 {
		return 2 * x.cfg.M
	}
	return x.cfg.M
}

// d evaluates the Hamming distance between rows i and j off the arena
// and counts it.
func (x *index) d(i, j int) float64 {
	x.distCalls.Add(1)
	return float64(x.mat.Hamming(i, j))
}

// normGap reports whether the norm gap between rows q (of norm qn) and
// j already reaches bound. The gap lower-bounds their Hamming distance,
// so a search can discard j without its popcount.
func (x *index) normGap(qn, j int, bound float64) bool {
	lb := qn - x.mat.Norm(j)
	return float64(lb) >= bound || float64(-lb) >= bound
}

// searchScratch is the reusable state of beam searches: an epoch-stamped
// visited array replaces the per-call map, and the heaps and copy
// buffers keep their capacity across calls. Each build chunk threads
// one scratch through its insertions; searches borrow one from the
// pool, so concurrent searches stay independent and allocation-free.
type searchScratch struct {
	visited  []uint32
	epoch    uint32
	frontier minHeap
	best     maxHeap
	result   []candidate
	eps      []int
	adj      []candidate
	sorted   []candidate
	selected []candidate
	linkSel  []candidate
}

func (x *index) getScratch() *searchScratch {
	if s, ok := x.scratch.Get().(*searchScratch); ok {
		return s
	}
	return &searchScratch{}
}

func (x *index) putScratch(s *searchScratch) { x.scratch.Put(s) }

// visit re-arms the visited array for a fresh search over n nodes and
// returns the epoch stamp marking this search's members.
func (s *searchScratch) visit(n int) uint32 {
	if len(s.visited) < n {
		s.visited = make([]uint32, n+n/2+8)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: flush stale stamps once per 2^32 searches
		clear(s.visited)
		s.epoch = 1
	}
	return s.epoch
}

// lock and unlock guard node id's adjacency; without locks (one
// writer) they do nothing.
func (x *index) lock(id int) {
	if x.locks != nil {
		x.locks[id].Lock()
	}
}

func (x *index) unlock(id int) {
	if x.locks != nil {
		x.locks[id].Unlock()
	}
}

// adjacency returns id's edges at layer. While concurrent inserters may
// rewrite the list, it is snapshot-copied into buf under the node's
// lock; otherwise the list itself is returned. Either way the result is
// read-only.
func (x *index) adjacency(id, layer int, buf []candidate) []candidate {
	if x.locks == nil {
		return x.nodes[id].neighbours[layer]
	}
	x.locks[id].Lock()
	buf = append(buf[:0], x.nodes[id].neighbours[layer]...)
	x.locks[id].Unlock()
	return buf
}

// insert wires node id, arena row id, into the graph under construction.
func (x *index) insert(id int, s *searchScratch) {
	level := len(x.nodes[id].neighbours) - 1

	x.entryMu.RLock()
	ep, maxLayer := x.entry, x.maxLayer
	x.entryMu.RUnlock()

	// Greedy descent through layers above the insertion level.
	for l := maxLayer; l > level; l-- {
		ep = x.greedyClosest(id, ep, l, s)
	}

	// Beam search and linking from min(level, maxLayer) down to 0.
	eps := append(s.eps[:0], ep)
	for l := min(level, maxLayer); l >= 0; l-- {
		found := x.searchLayer(id, eps, x.cfg.EfConstruction, l, s)
		s.selected = x.selectNeighboursInto(s.selected[:0], found, x.cfg.M, s)
		// Merge rather than overwrite: concurrent inserters may already
		// have back-linked into this node's list at this layer.
		x.lock(id)
		for _, nb := range s.selected {
			if !containsEdge(x.nodes[id].neighbours[l], nb.id) {
				x.nodes[id].neighbours[l] = append(x.nodes[id].neighbours[l], nb)
			}
		}
		x.unlock(id)
		for _, nb := range s.selected {
			// The edge distance travels with the back-link: Hamming is
			// symmetric, so d(nb, id) is the already-measured nb.dist.
			x.link(nb.id, id, l, nb.dist, s)
		}
		// Seed the next layer's search with this layer's results.
		eps = eps[:0]
		for _, c := range found {
			eps = append(eps, c.id)
		}
		if len(eps) == 0 {
			eps = append(eps, ep)
		}
	}
	s.eps = eps

	x.entryMu.Lock()
	if level > x.maxLayer {
		x.maxLayer = level
		x.entry = id
	}
	x.entryMu.Unlock()
}

// link adds dst (at the given distance from src) to src's adjacency at
// the given layer, deduplicating (a pair inserted concurrently can
// discover each other from both sides) and shrinking the list in place
// with the neighbour-selection policy when it overflows. The stored
// edge distances make the overflow re-selection free of distance
// evaluations; the whole operation runs under src's lock.
func (x *index) link(src, dst, layer int, dist float64, s *searchScratch) {
	limit := x.maxNeighbours(layer)
	x.lock(src)
	defer x.unlock(src)
	ns := x.nodes[src].neighbours[layer]
	if containsEdge(ns, dst) {
		return
	}
	ns = append(ns, candidate{id: dst, dist: dist})
	if len(ns) > limit {
		s.linkSel = x.selectNeighboursInto(s.linkSel[:0], ns, limit, s)
		// The overflowed list has capacity limit+1 >= the selection, so
		// the shrink reuses its backing.
		ns = append(ns[:0], s.linkSel...)
	}
	x.nodes[src].neighbours[layer] = ns
}

func containsEdge(edges []candidate, id int) bool {
	for _, e := range edges {
		if e.id == id {
			return true
		}
	}
	return false
}

// greedyClosest walks layer l from ep, moving to any strictly closer
// neighbour until a local minimum is reached (beam width 1).
func (x *index) greedyClosest(q, ep, layer int, s *searchScratch) int {
	qn := x.mat.Norm(q)
	cur := ep
	curDist := x.d(q, cur)
	for {
		improved := false
		s.adj = x.adjacency(cur, layer, s.adj)
		for _, e := range s.adj {
			nb := e.id
			// Same norm-gap lower bound as searchLayer: a neighbour that
			// provably cannot improve curDist is skipped unmeasured.
			if x.normGap(qn, nb, curDist) {
				continue
			}
			if dd := x.d(q, nb); dd < curDist {
				cur, curDist = nb, dd
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer is the best-first beam search (algorithm 2 in the HNSW
// paper): expand the closest unexpanded candidate while it can still
// improve the worst of the current ef best results. Returns the best
// candidates sorted ascending by distance; the slice is owned by the
// scratch and valid until its next searchLayer call.
func (x *index) searchLayer(q int, eps []int, ef, layer int, s *searchScratch) []candidate {
	qn := x.mat.Norm(q)
	epoch := s.visit(len(x.nodes))
	s.frontier = s.frontier[:0]
	s.best = s.best[:0]

	for _, ep := range eps {
		if s.visited[ep] == epoch {
			continue
		}
		s.visited[ep] = epoch
		c := candidate{id: ep, dist: x.d(q, ep)}
		s.frontier.push(c)
		s.best.push(c)
	}

	for s.frontier.len() > 0 {
		cur := s.frontier.pop()
		if s.best.len() >= ef && cur.dist > s.best.top().dist {
			break
		}
		s.adj = x.adjacency(cur.id, layer, s.adj)
		for _, e := range s.adj {
			nb := e.id
			if s.visited[nb] == epoch {
				continue
			}
			s.visited[nb] = epoch
			// A full beam only admits dd < worst, and the norm gap
			// lower-bounds the Hamming distance, so a candidate whose gap
			// already reaches the worst accepted distance is discarded
			// without its popcount. Results are bit-identical with and
			// without the skip.
			if s.best.len() >= ef && x.normGap(qn, nb, s.best.top().dist) {
				continue
			}
			dd := x.d(q, nb)
			if s.best.len() < ef || dd < s.best.top().dist {
				c := candidate{id: nb, dist: dd}
				s.frontier.push(c)
				s.best.push(c)
				if s.best.len() > ef {
					s.best.pop()
				}
			}
		}
	}

	if cap(s.result) < s.best.len() {
		s.result = make([]candidate, s.best.len())
	}
	s.result = s.result[:s.best.len()]
	for i := len(s.result) - 1; i >= 0; i-- {
		s.result[i] = s.best.pop()
	}
	return s.result
}

// selectNeighboursInto reduces a candidate set to at most m edges
// appended onto dst (which must be empty), either by simple
// closest-first selection or by the diversity heuristic. Each kept
// candidate retains its distance, so callers can store it on the edge.
// The ordered copy lives in the scratch sorted buffer, so the call
// allocates only when a buffer grows past its high-water capacity.
func (x *index) selectNeighboursInto(dst []candidate, cands []candidate, m int, s *searchScratch) []candidate {
	sorted := append(s.sorted[:0], cands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].dist < sorted[j].dist })
	s.sorted = sorted

	if !x.cfg.Heuristic {
		if len(sorted) > m {
			sorted = sorted[:m]
		}
		return append(dst, sorted...)
	}

	// Heuristic (algorithm 4): keep a candidate only if it is closer to
	// q than to any already-selected neighbour; this spreads links
	// across clusters instead of saturating one.
	for _, c := range sorted {
		if len(dst) >= m {
			break
		}
		keep := true
		for _, sel := range dst {
			if x.d(c.id, sel.id) < c.dist {
				keep = false
				break
			}
		}
		if keep {
			dst = append(dst, c)
		}
	}
	// Backfill with the closest rejected candidates if the heuristic was
	// too aggressive to reach m (keepPrunedConnections variant).
	if len(dst) < m {
		for _, c := range sorted {
			if len(dst) >= m {
				break
			}
			if !containsEdge(dst, c.id) {
				dst = append(dst, c)
			}
		}
	}
	return dst
}

// neighbour is one search hit.
type neighbour struct {
	// id is the row (insertion) id of the hit.
	id int
	// dist is its Hamming distance to the query row.
	dist float64
}

// searchEfRow returns up to k approximate nearest neighbours of indexed
// row q, sorted by ascending distance, using beam width ef (raised to k
// when smaller). The row itself appears in its own results at distance
// 0. An empty index, an out-of-range row, or k <= 0 yields nil.
func (x *index) searchEfRow(q, k, ef int) []neighbour {
	if q < 0 || q >= len(x.nodes) || k <= 0 {
		return nil
	}
	ef = max(ef, k)
	s := x.getScratch()
	defer x.putScratch(s)
	ep := x.entry
	for l := x.maxLayer; l >= 1; l-- {
		ep = x.greedyClosest(q, ep, l, s)
	}
	s.eps = append(s.eps[:0], ep)
	found := x.searchLayer(q, s.eps, ef, 0, s)
	if len(found) > k {
		found = found[:k]
	}
	out := make([]neighbour, len(found))
	for i, c := range found {
		out[i] = neighbour{id: c.id, dist: c.dist}
	}
	return out
}

// searchRadiusRow returns every indexed row the beam search finds
// within the given distance of row q (inclusive), using beam width ef.
// Unlike an exact radius scan this inherits HNSW's approximate recall;
// the §III-D grouping loop in Run queries every row this way.
func (x *index) searchRadiusRow(q int, radius float64, ef int) []neighbour {
	hits := x.searchEfRow(q, ef, ef)
	out := hits[:0]
	for _, h := range hits {
		if h.dist <= radius {
			out = append(out, h)
		}
	}
	return out
}
