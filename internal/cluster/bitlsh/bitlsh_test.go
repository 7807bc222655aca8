package bitlsh

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/cluster/rolediet"
)

// findGroups packs the rows into a bit-matrix arena and runs the serial
// lane over it.
func findGroups(rows []*bitvec.Vector, threshold int, cfg Config) (*Result, error) {
	return runRows(context.Background(), rows, Options{Config: cfg, Threshold: threshold})
}

func runRows(ctx context.Context, rows []*bitvec.Vector, opts Options) (*Result, error) {
	m, err := bitmat.FromRows(rows)
	if err != nil {
		return nil, err
	}
	return Run(ctx, m, opts)
}

func randRows(r *rand.Rand, n, dim int, density float64) []*bitvec.Vector {
	rows := make([]*bitvec.Vector, n)
	for i := range rows {
		v := bitvec.New(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < density {
				v.Set(j)
			}
		}
		rows[i] = v
	}
	return rows
}

func TestValidate(t *testing.T) {
	if err := (Config{Tables: -1}).Validate(); err == nil {
		t.Fatal("negative tables accepted")
	}
	rows := randRows(rand.New(rand.NewSource(1)), 4, 16, 0.5)
	if _, err := findGroups(rows, -1, Config{}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := findGroups(rows, 0, Config{BitsPerHash: -2}); err == nil {
		t.Fatal("negative bits accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := findGroups(nil, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("groups = %v", res.Groups)
	}
}

func TestWidthMismatch(t *testing.T) {
	rows := []*bitvec.Vector{bitvec.New(8), bitvec.New(9)}
	if _, err := findGroups(rows, 0, Config{}); err == nil {
		t.Fatal("mismatched widths accepted")
	}
}

func TestExactDuplicatesAlwaysFound(t *testing.T) {
	// At threshold 0 identical rows collide in every table: recall 1.
	r := rand.New(rand.NewSource(3))
	rows := randRows(r, 200, 128, 0.3)
	rows[50] = rows[10].Clone()
	rows[51] = rows[10].Clone()
	rows[120] = rows[60].Clone()
	res, err := findGroups(rows, 0, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exactGroups(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, want.Groups) {
		t.Fatalf("lsh %v != exact %v", res.Groups, want.Groups)
	}
}

// exactGroups runs the deterministic Role Diet pass at threshold 0.
func exactGroups(rows []*bitvec.Vector) (*rolediet.Result, error) {
	lists := make([][]int32, len(rows))
	for i, r := range rows {
		for _, j := range r.Indices() {
			lists[i] = append(lists[i], int32(j))
		}
	}
	return rolediet.Run(context.Background(), rows[0].Len(), lists, rolediet.Options{})
}

func TestPropertyExactCaseMatchesRoleDiet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 2+r.Intn(60), 1+r.Intn(64), 0.3)
		for d := 0; d < r.Intn(8); d++ {
			rows[r.Intn(len(rows))] = rows[r.Intn(len(rows))].Clone()
		}
		got, err := findGroups(rows, 0, Config{Seed: seed})
		if err != nil {
			return false
		}
		want, err := exactGroups(rows)
		if err != nil {
			return false
		}
		if len(got.Groups) == 0 && len(want.Groups) == 0 {
			return true
		}
		return reflect.DeepEqual(got.Groups, want.Groups)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNoFalsePairsAtPositiveThreshold(t *testing.T) {
	// Soundness: every grouped role is within k of some group member.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(2)
		rows := randRows(r, 2+r.Intn(40), 8+r.Intn(56), 0.3)
		res, err := findGroups(rows, k, Config{Seed: seed})
		if err != nil {
			return false
		}
		for _, g := range res.Groups {
			for _, i := range g {
				ok := false
				for _, j := range g {
					if i != j && rows[i].Hamming(rows[j]) <= k {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarPairsHighRecall(t *testing.T) {
	// Plant 20 pairs at distance 1 in a 256-bit space and measure
	// recall with default parameters; with w=256, k=1 the default b/L
	// should catch nearly all of them.
	r := rand.New(rand.NewSource(11))
	rows := randRows(r, 160, 256, 0.3)
	const pairs = 20
	for p := 0; p < pairs; p++ {
		base := rows[p*2]
		near := base.Clone()
		pos := r.Intn(256)
		if near.Get(pos) { // flip exactly one position
			near.Clear(pos)
		} else {
			near.Set(pos)
		}
		rows[p*2+1] = near
	}
	res, err := findGroups(rows, 1, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	grouped := map[int]int{}
	for gi, g := range res.Groups {
		for _, m := range g {
			grouped[m] = gi
		}
	}
	for p := 0; p < pairs; p++ {
		a, b := p*2, p*2+1
		ga, okA := grouped[a]
		gb, okB := grouped[b]
		if okA && okB && ga == gb {
			found++
		}
	}
	if float64(found) < 0.8*pairs {
		t.Fatalf("recall %d/%d below 0.8", found, pairs)
	}
}

func TestStatsPopulated(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	rows := randRows(r, 50, 64, 0.3)
	rows[1] = rows[0].Clone()
	res, err := findGroups(rows, 0, Config{Tables: 4, BitsPerHash: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tables != 4 || res.Stats.BitsPerHash != 16 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.CandidatePairs < res.Stats.VerifiedPairs {
		t.Fatalf("verified > candidates: %+v", res.Stats)
	}
	if res.Stats.VerifiedPairs < 1 {
		t.Fatalf("planted duplicate not verified: %+v", res.Stats)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	rows := randRows(r, 80, 128, 0.3)
	a, err := findGroups(rows, 1, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := findGroups(rows, 1, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Groups, b.Groups) {
		t.Fatal("same seed produced different groups")
	}
}

func TestDefaultBits(t *testing.T) {
	if b := defaultBits(1000, 0); b != 64 {
		t.Fatalf("defaultBits(1000, 0) = %d, want 64", b)
	}
	if b := defaultBits(32, 0); b != 32 {
		t.Fatalf("defaultBits(32, 0) = %d, want 32", b)
	}
	b := defaultBits(1000, 1)
	if b < 8 || b > 1024 {
		t.Fatalf("defaultBits(1000, 1) = %d out of range", b)
	}
	if b := defaultBits(4, 4); b < 1 {
		t.Fatalf("defaultBits(4,4) = %d", b)
	}
}

func TestGroupsSortedContract(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	rows := randRows(r, 60, 32, 0.3)
	for d := 0; d < 10; d++ {
		rows[r.Intn(len(rows))] = rows[r.Intn(len(rows))].Clone()
	}
	res, err := findGroups(rows, 0, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		if !sort.IntsAreSorted(g) {
			t.Fatalf("group %d not sorted: %v", gi, g)
		}
		if gi > 0 && res.Groups[gi-1][0] >= g[0] {
			t.Fatalf("groups not ordered by head: %v", res.Groups)
		}
	}
}
