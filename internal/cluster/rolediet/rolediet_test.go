package rolediet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/cluster/dbscan"
)

// groups lists the rows' set columns as sparse rows, refusing ragged
// rows as a matrix must, and runs the grouping over them, the shape of
// every production call.
func groups(rows []*bitvec.Vector, opts Options) (*Result, error) {
	for i, r := range rows {
		if r.Len() != rows[0].Len() {
			return nil, fmt.Errorf("row %d has length %d, want %d", i, r.Len(), rows[0].Len())
		}
	}
	return Run(context.Background(), widthOf(rows), sparseRows(rows), opts)
}

// arenaGroups packs the rows into a bit-matrix arena and runs GroupsMat,
// the arena lane the end-to-end benchmark replays.
func arenaGroups(rows []*bitvec.Vector, opts Options) (*Result, error) {
	m, err := bitmat.FromRows(rows)
	if err != nil {
		return nil, err
	}
	return GroupsMat(m, opts)
}

// paperRUAM reconstructs the worked example of §III-C. The co-occurrence
// matrix printed in the paper pins the assignments down to:
//
//	R01 = {U03}, R02 = {U01, U02}, R03 = {}, R04 = {U01, U02}, R05 = {U04}
//
// giving norms (1, 2, 0, 2, 1) and g(R02, R04) = 2 with all other
// off-diagonal co-occurrences zero.
func paperRUAM() []*bitvec.Vector {
	return []*bitvec.Vector{
		bitvec.FromIndices(4, []int{2}),
		bitvec.FromIndices(4, []int{0, 1}),
		bitvec.FromIndices(4, nil),
		bitvec.FromIndices(4, []int{0, 1}),
		bitvec.FromIndices(4, []int{3}),
	}
}

func TestPaperWorkedExample(t *testing.T) {
	rows := paperRUAM()
	c := CooccurrenceMatrix(widthOf(rows), sparseRows(rows))
	want := [][]int{
		{1, 0, 0, 0, 0},
		{0, 2, 0, 2, 0},
		{0, 0, 0, 0, 0},
		{0, 2, 0, 2, 0},
		{0, 0, 0, 0, 1},
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("CooccurrenceMatrix =\n%v\nwant\n%v", c, want)
	}

	// I(R02, R04) = 1; every other distinct pair is 0.
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			got, err := Indicator(c, i, j)
			if err != nil {
				t.Fatal(err)
			}
			wantInd := 0
			if (i == 1 && j == 3) || (i == 3 && j == 1) {
				wantInd = 1
			}
			if got != wantInd {
				t.Errorf("Indicator(%d,%d) = %d, want %d", i, j, got, wantInd)
			}
		}
	}

	res, err := groups(rows, Options{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, [][]int{{1, 3}}) {
		t.Fatalf("Groups = %v, want [[1 3]]", res.Groups)
	}
	if got := GroupsFromIndicator(c); !reflect.DeepEqual(got, [][]int{{1, 3}}) {
		t.Fatalf("GroupsFromIndicator = %v, want [[1 3]]", got)
	}
}

func TestIndicatorErrors(t *testing.T) {
	c := CooccurrenceMatrix(4, sparseRows(paperRUAM()))
	if _, err := Indicator(c, -1, 0); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := Indicator(c, 0, 5); err == nil {
		t.Error("out-of-range index accepted")
	}
	if got, err := Indicator(c, 2, 2); err != nil || got != 0 {
		t.Errorf("Indicator(i,i) = (%d, %v), want (0, nil)", got, err)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Threshold: -1}).Validate(); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := groups(paperRUAM(), Options{Threshold: -2}); err == nil {
		t.Error("Groups accepted negative threshold")
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := groups(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("Groups on empty input = %v", res.Groups)
	}
}

func TestRowWidthMismatch(t *testing.T) {
	// Ragged rows never reach Run: laying them out as a matrix fails.
	rows := []*bitvec.Vector{bitvec.New(3), bitvec.New(4)}
	if _, err := groups(rows, Options{}); err == nil {
		t.Fatal("mismatched row widths accepted")
	}
}

func TestEmptyRowsGroupTogetherExact(t *testing.T) {
	rows := []*bitvec.Vector{
		bitvec.New(8),
		bitvec.FromIndices(8, []int{1}),
		bitvec.New(8),
	}
	for _, disable := range []bool{false, true} {
		res, err := groups(rows, Options{Threshold: 0, DisableExactHashFastPath: disable})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Groups, [][]int{{0, 2}}) {
			t.Fatalf("disable=%v: Groups = %v, want [[0 2]]", disable, res.Groups)
		}
	}
}

func TestSimilarThresholdOne(t *testing.T) {
	rows := []*bitvec.Vector{
		bitvec.FromIndices(8, []int{0, 1, 2}),
		bitvec.FromIndices(8, []int{0, 1, 2, 3}), // 1 away from row 0
		bitvec.FromIndices(8, []int{5, 6}),       // far from everything
		bitvec.New(8),                            // empty: 1 away from nothing but other small rows
		bitvec.FromIndices(8, []int{7}),          // norm 1: within 1 of the empty row
	}
	res, err := groups(rows, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {3, 4}}
	if !reflect.DeepEqual(res.Groups, want) {
		t.Fatalf("Groups = %v, want %v", res.Groups, want)
	}
}

func TestChainingSemantics(t *testing.T) {
	// 000, 001, 011 chain at k=1 exactly like the DBSCAN baseline.
	rows := []*bitvec.Vector{
		bitvec.New(3),
		bitvec.FromIndices(3, []int{2}),
		bitvec.FromIndices(3, []int{1, 2}),
	}
	res, err := groups(rows, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, [][]int{{0, 1, 2}}) {
		t.Fatalf("Groups = %v, want one chained group", res.Groups)
	}
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

// plantDuplicates overwrites random rows with copies of earlier rows so
// exact groups are guaranteed to exist.
func plantDuplicates(r *rand.Rand, rows []*bitvec.Vector, count int) {
	for c := 0; c < count && len(rows) >= 2; c++ {
		src := r.Intn(len(rows))
		dst := r.Intn(len(rows))
		if src != dst {
			rows[dst] = rows[src].Clone()
		}
	}
}

func bruteExactGroups(rows []*bitvec.Vector) [][]int {
	byKey := map[string][]int{}
	for i, r := range rows {
		byKey[r.String()] = append(byKey[r.String()], i)
	}
	var out [][]int
	for _, g := range byKey {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	for _, g := range out {
		sort.Ints(g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func groupsEqual(a, b [][]int) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestPropertyExactMatchesBruteForce(t *testing.T) {
	// DESIGN.md §7: RoleDiet exact groups == brute-force vector-equality
	// groups, through both the hash fast path and the general path.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 2+r.Intn(50), 1+r.Intn(20), 0.3)
		plantDuplicates(r, rows, r.Intn(10))
		want := bruteExactGroups(rows)
		for _, disable := range []bool{false, true} {
			res, err := groups(rows, Options{Threshold: 0, DisableExactHashFastPath: disable})
			if err != nil {
				return false
			}
			if !groupsEqual(res.Groups, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// dbscanGroups runs the exact baseline and normalises its output.
func dbscanGroups(rows []*bitvec.Vector, eps float64) [][]int {
	m, err := bitmat.FromRows(rows)
	if err != nil {
		panic(err)
	}
	res, err := dbscan.Run(context.Background(), m, dbscan.Config{Eps: eps, MinPts: 2})
	if err != nil {
		panic(err)
	}
	gs := res.Groups()
	for _, g := range gs {
		sort.Ints(g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i][0] < gs[j][0] })
	return gs
}

func TestPropertySimilarMatchesDBSCAN(t *testing.T) {
	// With minPts=2 every point that has a neighbour is a core point, so
	// DBSCAN's clusters are exactly the connected components of the
	// "Hamming <= k" graph — which is what RoleDiet computes. The two
	// independent implementations must therefore agree perfectly.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(3)
		rows := randRows(r, 2+r.Intn(40), 1+r.Intn(12), 0.3)
		plantDuplicates(r, rows, r.Intn(6))
		res, err := groups(rows, Options{Threshold: k})
		if err != nil {
			return false
		}
		return groupsEqual(res.Groups, dbscanGroups(rows, float64(k)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAllReportedPairsWithinThreshold(t *testing.T) {
	// Soundness: within a group, every member is within k of at least
	// one other member (chain step), and no ungrouped role is within k
	// of any grouped or ungrouped role (completeness).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(3)
		rows := randRows(r, 2+r.Intn(30), 1+r.Intn(10), 0.35)
		res, err := groups(rows, Options{Threshold: k})
		if err != nil {
			return false
		}
		inGroup := make([]int, len(rows)) // group id per role, -1 when ungrouped
		for i := range inGroup {
			inGroup[i] = -1
		}
		for gid, g := range res.Groups {
			for _, i := range g {
				inGroup[i] = gid
			}
		}
		// Chain step soundness.
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
		// Completeness: any qualifying pair must be co-grouped.
		for i := range rows {
			for j := i + 1; j < len(rows); j++ {
				if rows[i].Hamming(rows[j]) <= k {
					if inGroup[i] == -1 || inGroup[i] != inGroup[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPairsExaminedBounded(t *testing.T) {
	// Disjoint rows share no users, so the inverted index must examine
	// zero pairs.
	rows := []*bitvec.Vector{
		bitvec.FromIndices(8, []int{0, 1}),
		bitvec.FromIndices(8, []int{2, 3}),
		bitvec.FromIndices(8, []int{4, 5}),
	}
	res, err := groups(rows, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsExamined != 0 {
		t.Fatalf("PairsExamined = %d, want 0 for disjoint rows", res.PairsExamined)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("Groups = %v, want none", res.Groups)
	}
}

func TestLargeIdenticalBlock(t *testing.T) {
	// 100 identical rows must come back as one group of 100.
	base := bitvec.FromIndices(64, []int{1, 5, 9})
	rows := make([]*bitvec.Vector, 100)
	for i := range rows {
		rows[i] = base.Clone()
	}
	res, err := groups(rows, Options{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || len(res.Groups[0]) != 100 {
		t.Fatalf("got %d groups, first size %d", len(res.Groups), len(res.Groups[0]))
	}
}

// TestPairsConsistentWithGroups: union-find over the brute-force list of
// role pairs within the threshold must equal the groups Run reports.
func TestPairsConsistentWithGroups(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 2+r.Intn(30), 1+r.Intn(10), 0.3)
		k := r.Intn(3)
		uf := newUnionFind(len(rows))
		for i := range rows {
			for j := i + 1; j < len(rows); j++ {
				if rows[i].Hamming(rows[j]) <= k {
					uf.union(i, j)
				}
			}
		}
		byRoot := map[int][]int{}
		for i := range rows {
			byRoot[uf.find(i)] = append(byRoot[uf.find(i)], i)
		}
		var derived [][]int
		for _, g := range byRoot {
			if len(g) >= 2 {
				derived = append(derived, g)
			}
		}
		sortGroups(derived)
		res, err := groups(rows, Options{Threshold: k})
		if err != nil {
			return false
		}
		return groupsEqual(derived, res.Groups)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
