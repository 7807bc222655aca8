package mining

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/rbac"
)

// TestMineGolden pins the mined decomposition on generated
// organisations: sha256 of ToDataset's JSON, for both candidate
// strategies, at one and at four workers. A change to the miner's data
// layout must reach the byte-identical role set.
func TestMineGolden(t *testing.T) {
	cases := []struct {
		name     string
		src      *rbac.Dataset
		strategy CandidateStrategy
		digest   string
	}{
		{"paper400-seed1", orgDataset(t, 400, 1), DistinctRows, "521e7dd73edb5f9fa2b13a2a950dfd1c029f3452aee4aca5f7fe2aa6422ebc12"},
		{"paper400-seed1", orgDataset(t, 400, 1), PairwiseIntersections, "521e7dd73edb5f9fa2b13a2a950dfd1c029f3452aee4aca5f7fe2aa6422ebc12"},
		{"overlap-seed1", overlapDataset(1, 60, 24, 90), DistinctRows, "f906afad2b8178dd33dbc531d54d2a1f45e367d01a9d6bcab3fa42a6a3f68503"},
		{"overlap-seed1", overlapDataset(1, 60, 24, 90), PairwiseIntersections, "eb939a416444d21ceec431dcf7db6cb8e0baeb33e3f176340fd047a0e105ffed"},
		{"overlap-seed2", overlapDataset(2, 120, 40, 200), DistinctRows, "54d6584b502230a58ca05767d3b1cd549b66ee577169fb5d69727ea5f00f5dfe"},
		{"overlap-seed2", overlapDataset(2, 120, 40, 200), PairwiseIntersections, "2d14cfbac5e5111962f5651c36c1b1036dab7f8985dc9ea081bf71e91a15d87f"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-%s-w%d", c.name, c.strategy, workers), func(t *testing.T) {
				res, err := Mine(UPAFromDataset(c.src), Options{Strategy: c.strategy, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := minedDigest(t, c.src, res); got != c.digest {
					t.Fatalf("mined digest %s, want %s", got, c.digest)
				}
			})
		}
	}
}

// orgDataset generates the paper-shaped organisation at the given
// scale divisor.
func orgDataset(t *testing.T, div int, seed int64) *rbac.Dataset {
	t.Helper()
	p := gen.DefaultOrgParams().Scaled(div)
	p.Seed = seed
	d, _, err := gen.Org(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// overlapDataset builds roles with random permission sets and gives
// each user one to three of them, so users' effective rows overlap and
// pairwise intersections add candidates the distinct rows lack.
func overlapDataset(seed int64, users, roles, perms int) *rbac.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := rbac.NewDataset()
	for p := 0; p < perms; p++ {
		d.EnsurePermission(rbac.PermissionID(fmt.Sprintf("p%03d", p)))
	}
	for r := 0; r < roles; r++ {
		id := rbac.RoleID(fmt.Sprintf("r%03d", r))
		d.EnsureRole(id)
		for k := 2 + rng.Intn(6); k > 0; k-- {
			_ = d.AssignPermission(id, rbac.PermissionID(fmt.Sprintf("p%03d", rng.Intn(perms))))
		}
	}
	for u := 0; u < users; u++ {
		uid := rbac.UserID(fmt.Sprintf("u%03d", u))
		d.EnsureUser(uid)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			_ = d.AssignUser(rbac.RoleID(fmt.Sprintf("r%03d", rng.Intn(roles))), uid)
		}
	}
	return d
}

// minedDigest hashes the mined dataset's JSON together with the
// candidate pool size.
func minedDigest(t *testing.T, src *rbac.Dataset, res *Result) string {
	t.Helper()
	mined, err := ToDataset(src, res)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := mined.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	raw = fmt.Appendf(raw, "\ncandidates=%d", res.CandidateCount)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
