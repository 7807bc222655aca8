// Package mining implements bottom-up role mining: deriving a role set
// from an existing user-permission assignment (UPA) matrix.
//
// The paper positions Role Diet against this line of work (§II: Vaidya
// et al.'s RoleMiner, Molloy et al., Tripunitara): role *mining* builds
// new roles from scratch, while Role Diet only combines existing roles.
// Having a miner in the repository completes that comparison: after
// consolidation one can check how far the cleaned role set still is
// from a freshly mined decomposition.
//
// Two classic pieces are provided:
//
//   - candidate generation in the style of FastMiner: the distinct user
//     rows of the UPA (each user's full permission set) plus, optionally,
//     all pairwise intersections of those rows — exactly the initial
//     role set of Vaidya et al. (2006);
//   - a greedy set-cover pass for the Role Minimization Problem: pick
//     the candidate covering the most uncovered UPA cells until every
//     cell is covered. Greedy set cover gives the usual ln(n)
//     approximation to the minimal role count.
//
// The UPA is one strictly ascending permission row per user, the form
// rbac.Dataset.EffectivePermissions returns; candidates and mined roles
// are rows of the same form. Membership tests against the UPA and the
// cells covered so far go through two bitmat arenas.
//
// The mined decomposition is lossless: UA x PA reconstructs the UPA
// exactly (no over- or under-assignment), which Reconstruct verifies.
package mining

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/bitmat"
	"repro/internal/ctxcheck"
	"repro/internal/parallel"
	"repro/internal/rbac"
)

// CandidateStrategy selects how initial candidate roles are generated.
type CandidateStrategy int

// Candidate strategies.
const (
	// DistinctRows uses each distinct user row as a candidate role.
	DistinctRows CandidateStrategy = iota + 1
	// PairwiseIntersections additionally adds the intersection of every
	// pair of distinct user rows — FastMiner's candidate set, which can
	// expose shared sub-roles and reduce the final role count.
	PairwiseIntersections
)

// String names the strategy.
func (s CandidateStrategy) String() string {
	switch s {
	case DistinctRows:
		return "distinct-rows"
	case PairwiseIntersections:
		return "pairwise-intersections"
	default:
		return fmt.Sprintf("mining.CandidateStrategy(%d)", int(s))
	}
}

// Options tunes the miner.
type Options struct {
	// Strategy selects candidate generation; defaults to
	// PairwiseIntersections.
	Strategy CandidateStrategy
	// MaxCandidates caps the candidate pool (0 = unlimited). Pairwise
	// intersection pools grow quadratically in distinct rows; the cap
	// keeps the miner usable on large UPAs, trading optimality. Every
	// distinct row stays in the pool whatever the cap, so an exact cover
	// always exists: the cap only limits the intersections added after
	// them, and a cap below the distinct-row count admits none.
	MaxCandidates int
	// Workers fans the per-round candidate-gain evaluation (the greedy
	// set cover's hot loop) out over this many goroutines. 0 and 1 run
	// serially; >= 2 parallelises. The mined decomposition is
	// bit-identical to the serial run regardless of the value: gains are
	// exact integer sums collected into a pre-sized slice and the argmax
	// scan stays serial in candidate order, so tie-breaking cannot
	// depend on goroutine scheduling.
	Workers int
}

// Validate checks the options.
func (o Options) Validate() error {
	switch o.Strategy {
	case 0, DistinctRows, PairwiseIntersections:
	default:
		return fmt.Errorf("mining: unknown strategy %d", int(o.Strategy))
	}
	if o.MaxCandidates < 0 {
		return fmt.Errorf("mining: negative candidate cap %d", o.MaxCandidates)
	}
	if o.Workers < 0 {
		return fmt.Errorf("mining: negative workers %d", o.Workers)
	}
	return nil
}

// Result is a mined role decomposition.
type Result struct {
	// Roles holds each mined role's permission indices, ascending.
	Roles [][]int32
	// Assignment lists, per user, the mined-role indices assigned to
	// that user (ascending).
	Assignment [][]int
	// CandidateCount is the size of the candidate pool the greedy pass
	// selected from.
	CandidateCount int
}

// NumRoles returns the number of mined roles.
func (r *Result) NumRoles() int { return len(r.Roles) }

// Reconstruct rebuilds the UPA implied by the decomposition: user u's
// row holds p iff some role assigned to u grants p.
func (r *Result) Reconstruct() [][]int32 {
	out := make([][]int32, len(r.Assignment))
	for u, roles := range r.Assignment {
		var row []int32
		for _, ri := range roles {
			row = append(row, r.Roles[ri]...)
		}
		slices.Sort(row)
		out[u] = slices.Compact(row)
	}
	return out
}

// UPAFromDataset returns a dataset's effective permissions as the UPA:
// the input a bottom-up miner starts from when the existing role
// structure is to be rebuilt.
func UPAFromDataset(d *rbac.Dataset) [][]int32 { return d.EffectivePermissions() }

// Mine derives a role set covering the UPA exactly. Each UPA row must
// ascend strictly.
func Mine(upa [][]int32, opts Options) (*Result, error) {
	return MineContext(context.Background(), upa, opts)
}

// MineContext is Mine with cooperative cancellation and optional
// parallelism. The greedy cover's hot loop — re-scoring every live
// candidate against every user it can serve, each round — polls the
// context on a ctxcheck stride (per worker when Workers >= 2, so every
// goroutine stops within its own stride of a cancellation) and fans out
// over Options.Workers. The decomposition is bit-identical to the
// serial run for any worker count; see Options.Workers.
func MineContext(ctx context.Context, upa [][]int32, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Strategy == 0 {
		opts.Strategy = PairwiseIntersections
	}
	users := len(upa)
	width, remaining := 0, 0
	for _, row := range upa {
		if len(row) > 0 {
			width = max(width, int(row[len(row)-1])+1)
		}
		remaining += len(row)
	}
	held := bitmat.New(users, width)
	for u, row := range upa {
		for _, p := range row {
			held.Set(u, int(p))
		}
	}

	candidates, err := generateCandidates(ctx, upa, opts)
	if err != nil {
		return nil, err
	}

	// For each candidate role, the users it can serve are exactly those
	// whose row is a superset of the role (assigning it to anyone else
	// would over-grant). Serving sets are static — coverage growth never
	// changes subset relations against the original UPA — so they are
	// computed once up front instead of once per greedy round.
	served := make([][]int32, len(candidates))
	chunks := parallel.SplitRange(len(candidates), parallel.Workers(opts.Workers, len(candidates)))
	err = parallel.ForEachChunk(ctx, chunks, 0, func(_ int, c parallel.Chunk, chk *ctxcheck.Checker) error {
		for ci := c.Lo; ci < c.Hi; ci++ {
			cand := candidates[ci]
			for u := 0; u < users; u++ {
				if err := chk.Tick(); err != nil {
					return err
				}
				if len(cand) <= len(upa[u]) && countMissing(held, u, cand) == 0 {
					served[ci] = append(served[ci], int32(u))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Greedy set cover over UPA cells: each round picks the candidate
	// covering the most still-uncovered cells across its serving users.
	// Gains are recomputed in parallel into a pre-sized slice; the
	// argmax scan stays serial in candidate order so the strict-greater
	// tie-break (first candidate wins) is identical for any Workers.
	covered := bitmat.New(users, width)
	var chosen [][]int32
	assignment := make([][]int, users)
	gains := make([]int, len(candidates))
	used := make([]bool, len(candidates)) // each candidate used at most once

	for remaining > 0 {
		err := parallel.ForEachChunk(ctx, chunks, 0, func(_ int, c parallel.Chunk, chk *ctxcheck.Checker) error {
			for ci := c.Lo; ci < c.Hi; ci++ {
				gains[ci] = 0
				if used[ci] {
					continue
				}
				gain := 0
				for _, u := range served[ci] {
					if err := chk.Tick(); err != nil {
						return err
					}
					gain += countMissing(covered, int(u), candidates[ci])
				}
				gains[ci] = gain
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		bestGain, bestIdx := 0, -1
		for ci, g := range gains {
			if g > bestGain {
				bestGain = g
				bestIdx = ci
			}
		}
		if bestIdx < 0 {
			// Cannot happen: the pool always holds every distinct row.
			return nil, fmt.Errorf("mining: %d cells uncoverable with the candidate pool", remaining)
		}
		role := candidates[bestIdx]
		roleIdx := len(chosen)
		chosen = append(chosen, slices.Clone(role))
		for _, u := range served[bestIdx] {
			newCells := 0
			for _, p := range role {
				if !covered.Get(int(u), int(p)) {
					covered.Set(int(u), int(p))
					newCells++
				}
			}
			if newCells > 0 {
				remaining -= newCells
				assignment[u] = append(assignment[u], roleIdx)
			}
		}
		used[bestIdx] = true
	}

	return &Result{
		Roles:          chosen,
		Assignment:     assignment,
		CandidateCount: len(candidates),
	}, nil
}

// countMissing counts the columns of row that arena row u lacks:
// |row AND NOT m[u]|.
func countMissing(m *bitmat.Matrix, u int, row []int32) int {
	n := 0
	for _, p := range row {
		if !m.Get(u, int(p)) {
			n++
		}
	}
	return n
}

// generateCandidates builds the candidate pool: every distinct non-empty
// user row, then, under the FastMiner strategy, the distinct non-empty
// pairwise intersections of those rows while the pool is below
// MaxCandidates. The distinct rows are never cut, so an exact cover
// always exists. The pairwise loop — quadratic in distinct rows — polls
// the context on a ctxcheck stride.
func generateCandidates(ctx context.Context, upa [][]int32, opts Options) ([][]int32, error) {
	seen := make(map[string]struct{})
	var out [][]int32
	var key []byte
	add := func(row []int32) {
		if len(row) == 0 {
			return
		}
		key = key[:0]
		for _, p := range row {
			key = binary.LittleEndian.AppendUint32(key, uint32(p))
		}
		if _, dup := seen[string(key)]; dup {
			return
		}
		seen[string(key)] = struct{}{}
		out = append(out, row)
	}

	for _, row := range upa {
		add(row)
	}

	if opts.Strategy == PairwiseIntersections {
		distinct := len(out)
		chk := ctxcheck.New(ctx, 0)
		for i := 0; i < distinct; i++ {
			for j := i + 1; j < distinct; j++ {
				if err := chk.Tick(); err != nil {
					return nil, err
				}
				if opts.MaxCandidates > 0 && len(out) >= opts.MaxCandidates {
					return out, nil
				}
				add(intersect(out[i], out[j]))
			}
		}
	}
	return out, nil
}

// intersect returns the columns two ascending rows share, ascending.
func intersect(a, b []int32) []int32 {
	var out []int32
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		}
	}
	return out
}

// ToDataset converts a mined decomposition back into an rbac.Dataset,
// naming entities after their indices in the given source dataset.
func ToDataset(src *rbac.Dataset, res *Result) (*rbac.Dataset, error) {
	out := rbac.NewDataset()
	for _, u := range src.Users() {
		if err := out.AddUser(u); err != nil {
			return nil, err
		}
	}
	for _, p := range src.Permissions() {
		if err := out.AddPermission(p); err != nil {
			return nil, err
		}
	}
	for ri, role := range res.Roles {
		id := rbac.RoleID(fmt.Sprintf("mined-%04d", ri))
		if err := out.AddRole(id); err != nil {
			return nil, err
		}
		for _, p := range role {
			if err := out.AssignPermission(id, src.Permission(int(p))); err != nil {
				return nil, err
			}
		}
	}
	for u, roles := range res.Assignment {
		for _, ri := range roles {
			id := rbac.RoleID(fmt.Sprintf("mined-%04d", ri))
			if err := out.AssignUser(id, src.User(u)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
