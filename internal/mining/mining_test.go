package mining

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/consolidate"
	"repro/internal/rbac"
)

// upaFromRows builds a UPA from 0/1 strings.
func upaFromRows(t *testing.T, rows ...string) [][]int32 {
	t.Helper()
	upa := make([][]int32, len(rows))
	for i, s := range rows {
		for p, c := range s {
			switch c {
			case '1':
				upa[i] = append(upa[i], int32(p))
			case '0':
			default:
				t.Fatalf("row %d: invalid character %q", i, c)
			}
		}
	}
	return upa
}

// randomUPA draws a users x perms UPA with each cell set with
// probability density.
func randomUPA(r *rand.Rand, users, perms int, density float64) [][]int32 {
	upa := make([][]int32, users)
	for u := range upa {
		for p := 0; p < perms; p++ {
			if r.Float64() < density {
				upa[u] = append(upa[u], int32(p))
			}
		}
	}
	return upa
}

// sameUPA reports whether two UPAs hold the same cells; a nil and an
// empty row are equal.
func sameUPA(a, b [][]int32) bool { return slices.EqualFunc(a, b, slices.Equal[[]int32]) }

func TestStrategyString(t *testing.T) {
	if DistinctRows.String() != "distinct-rows" ||
		PairwiseIntersections.String() != "pairwise-intersections" {
		t.Fatal("strategy names wrong")
	}
	if !strings.Contains(CandidateStrategy(9).String(), "9") {
		t.Fatal("unknown strategy name")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Strategy: CandidateStrategy(42)}).Validate(); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if err := (Options{MaxCandidates: -1}).Validate(); err == nil {
		t.Fatal("negative cap accepted")
	}
	upa := make([][]int32, 1)
	if _, err := Mine(upa, Options{MaxCandidates: -1}); err == nil {
		t.Fatal("Mine accepted invalid options")
	}
}

func TestMineExactCoverSimple(t *testing.T) {
	// Three users; users 0 and 1 have the same permissions, user 2 a
	// subset. Distinct-rows mining needs 2 roles; intersections find
	// the shared sub-role.
	upa := upaFromRows(t,
		"1100",
		"1100",
		"1000",
	)
	res, err := Mine(upa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameUPA(res.Reconstruct(), upa) {
		t.Fatal("reconstruction mismatch")
	}
	if res.NumRoles() > 2 {
		t.Fatalf("mined %d roles, want <= 2", res.NumRoles())
	}
}

func TestMineSharedSubRole(t *testing.T) {
	// Users: {A,B}, {B,C}, {B}. Intersections expose {B}; greedy can
	// cover with roles {B}, {A}, {C}... but fewer cells argue for
	// {A,B}, {B,C}, giving user 2 role... {B} must exist for user 2.
	upa := upaFromRows(t,
		"110",
		"011",
		"010",
	)
	res, err := Mine(upa, Options{Strategy: PairwiseIntersections})
	if err != nil {
		t.Fatal(err)
	}
	if !sameUPA(res.Reconstruct(), upa) {
		t.Fatal("reconstruction mismatch")
	}
	if res.NumRoles() > 3 {
		t.Fatalf("mined %d roles", res.NumRoles())
	}
}

func TestMineEmptyUPA(t *testing.T) {
	upa := make([][]int32, 3)
	res, err := Mine(upa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRoles() != 0 {
		t.Fatalf("mined %d roles from empty UPA", res.NumRoles())
	}
	if !sameUPA(res.Reconstruct(), upa) {
		t.Fatal("empty reconstruction mismatch")
	}
}

func TestMineNoOverGranting(t *testing.T) {
	// Reconstruct must never set a cell the UPA does not have: a role is
	// only assigned to users whose row is a superset.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users := 2 + r.Intn(10)
		perms := 2 + r.Intn(12)
		upa := randomUPA(r, users, perms, 0.35)
		for _, strat := range []CandidateStrategy{DistinctRows, PairwiseIntersections} {
			res, err := Mine(upa, Options{Strategy: strat})
			if err != nil {
				return false
			}
			if !sameUPA(res.Reconstruct(), upa) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMineRoleCountBounded(t *testing.T) {
	// With the DistinctRows strategy every chosen candidate is a
	// distinct user row and is used at most once, so the mined role
	// count never exceeds the distinct non-empty row count. (The
	// intersection strategy can exceed it: a shared sub-role plus
	// per-user top-ups may need more roles, trading role count for
	// smaller roles — the classic role-mining tension.)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users := 2 + r.Intn(12)
		perms := 2 + r.Intn(10)
		upa := randomUPA(r, users, perms, 0.3)
		distinct := map[string]struct{}{}
		for _, row := range upa {
			if len(row) > 0 {
				distinct[fmt.Sprint(row)] = struct{}{}
			}
		}
		res, err := Mine(upa, Options{Strategy: DistinctRows})
		if err != nil {
			return false
		}
		return res.NumRoles() <= len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCandidatesStillCovers(t *testing.T) {
	// Capping candidates to the distinct-row count keeps the cover
	// feasible (the distinct rows come first in the pool).
	upa := upaFromRows(t,
		"1100",
		"0110",
		"0011",
		"1100",
	)
	res, err := Mine(upa, Options{Strategy: PairwiseIntersections, MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sameUPA(res.Reconstruct(), upa) {
		t.Fatal("capped pool failed to cover")
	}
}

func TestMaxCandidatesKeepsDistinctRows(t *testing.T) {
	// A cap below the distinct-row count must not cut a distinct row
	// under either strategy: the pool keeps all three rows, admits no
	// intersection, and the cover stays exact.
	upa := upaFromRows(t,
		"1100",
		"0110",
		"0011",
	)
	for _, strat := range []CandidateStrategy{DistinctRows, PairwiseIntersections} {
		res, err := Mine(upa, Options{Strategy: strat, MaxCandidates: 2})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !sameUPA(res.Reconstruct(), upa) {
			t.Fatalf("%s: capped pool failed to cover", strat)
		}
		if res.CandidateCount != 3 {
			t.Fatalf("%s: pool of %d candidates, want the 3 distinct rows", strat, res.CandidateCount)
		}
	}
}

func TestUPAFromDatasetAndToDataset(t *testing.T) {
	src := rbac.Figure1()
	upa := UPAFromDataset(src)
	if len(upa) != src.NumUsers() {
		t.Fatalf("UPA has %d rows", len(upa))
	}
	// U01 effectively holds P05 and P06 (via R04).
	u01, _ := src.UserIndex("U01")
	p05, _ := src.PermissionIndex("P05")
	if !slices.Contains(upa[u01], int32(p05)) {
		t.Fatal("UPA missing effective permission")
	}

	res, err := Mine(upa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := ToDataset(src, res)
	if err != nil {
		t.Fatal(err)
	}
	// The mined dataset must grant exactly the same effective
	// permissions — the consolidation safety checker is the oracle.
	if err := consolidate.VerifySafety(src, mined); err != nil {
		t.Fatalf("mined dataset changed effective permissions: %v", err)
	}
	// Figure 1's users need at most 2 distinct permission sets.
	if mined.NumRoles() > 2 {
		t.Fatalf("mined %d roles for Figure 1, want <= 2", mined.NumRoles())
	}
}

func TestMineContextWorkersBitIdentical(t *testing.T) {
	// The parallel gain evaluation must be bit-identical to the serial
	// run for any worker count: same roles in the same order, same
	// assignments, same candidate accounting.
	for _, seed := range []int64{1, 7, 42} {
		r := rand.New(rand.NewSource(seed))
		users := 20 + r.Intn(30)
		perms := 24 + r.Intn(40)
		upa := randomUPA(r, users, perms, 0.25)
		serial, err := Mine(upa, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := MineContext(context.Background(), upa, Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("seed=%d workers=%d: decomposition differs from serial", seed, workers)
			}
		}
	}
}

func TestMineContextCancellation(t *testing.T) {
	// A pre-cancelled context must abort with ctx.Err() for both the
	// serial and parallel paths — the candidate and gain loops all poll.
	r := rand.New(rand.NewSource(5))
	upa := randomUPA(r, 40, 64, 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 4} {
		if _, err := MineContext(ctx, upa, Options{Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

func TestOptionsValidateWorkers(t *testing.T) {
	if err := (Options{Workers: -1}).Validate(); err == nil {
		t.Fatal("negative workers accepted")
	}
}

func TestMineDeterministic(t *testing.T) {
	upa := upaFromRows(t,
		"1100",
		"0110",
		"0011",
		"1010",
	)
	a, err := Mine(upa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(upa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRoles() != b.NumRoles() {
		t.Fatal("non-deterministic role count")
	}
	for i := range a.Roles {
		if !slices.Equal(a.Roles[i], b.Roles[i]) {
			t.Fatal("non-deterministic roles")
		}
	}
}
