package rolediet

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// withWorkers returns opts with the co-occurrence fan-out set.
func withWorkers(opts Options, workers int) Options {
	opts.Workers = workers
	return opts
}

func TestGroupsParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 2+r.Intn(60), 1+r.Intn(20), 0.3)
		plantDuplicates(r, rows, r.Intn(10))
		opts := Options{Threshold: r.Intn(3), DisableExactHashFastPath: r.Intn(2) == 0}
		workers := 2 + r.Intn(7)
		serial, err := arenaGroups(rows, opts)
		if err != nil {
			return false
		}
		par, err := arenaGroups(rows, withWorkers(opts, workers))
		if err != nil {
			return false
		}
		if !groupsEqual(serial.Groups, par.Groups) {
			return false
		}
		// The pair-examination count is partition-independent.
		return serial.PairsExamined == par.PairsExamined
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupsParallelDefaults: the zero Workers value is the serial
// lane, not an implicit GOMAXPROCS fan-out, and still groups correctly.
func TestGroupsParallelDefaults(t *testing.T) {
	rows := paperRUAM()
	calls := 0
	opts := Options{Threshold: 1, Progress: func(done, total int) { calls++ }}
	res, err := groups(rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := groups(rows, withWorkers(Options{Threshold: 1}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("Workers 0 = %+v, Workers 1 = %+v", res, want)
	}
	if calls == 0 {
		t.Fatal("progress hook never invoked")
	}
}

func TestGroupsParallelValidation(t *testing.T) {
	if _, err := groups(paperRUAM(), Options{Threshold: -1, Workers: 2}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := arenaGroups(paperRUAM(), Options{Threshold: -1, Workers: 2}); err == nil {
		t.Fatal("GroupsMat accepted a negative threshold")
	}
}

func TestGroupsParallelEmpty(t *testing.T) {
	res, err := groups(nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("Groups = %v", res.Groups)
	}
}

func TestGroupsParallelMoreWorkersThanRows(t *testing.T) {
	rows := paperRUAM()
	res, err := groups(rows, Options{Threshold: 1, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := groups(rows, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !groupsEqual(res.Groups, serial.Groups) {
		t.Fatalf("parallel %v != serial %v", res.Groups, serial.Groups)
	}
}

// TestRowLenError: a ragged input is refused before any grouping runs,
// with the row index and both widths in the message, whatever the
// worker count.
func TestRowLenError(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rows := randRows(r, 5, 8, 0.5)
	rows[3] = randRows(r, 1, 6, 0.5)[0] // row 3: width 6, want 8
	for _, workers := range []int{1, 4} {
		_, err := groups(rows, Options{Threshold: 1, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: ragged rows accepted", workers)
		}
		if want := "row 3 has length 6, want 8"; !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: error %q does not contain %q", workers, err, want)
		}
	}
}

// TestGroupsCSRParallelMatchesSerial mirrors the arena lane's
// metamorphic check for Run.
func TestGroupsCSRParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 2+r.Intn(60), 1+r.Intn(20), 0.3)
		plantDuplicates(r, rows, r.Intn(10))
		cols, sparse := widthOf(rows), sparseRows(rows)
		k := r.Intn(3)
		workers := 2 + r.Intn(7)
		serial, err := Run(ctx, cols, sparse, Options{Threshold: k})
		if err != nil {
			return false
		}
		par, err := Run(ctx, cols, sparse, Options{Threshold: k, Workers: workers})
		if err != nil {
			return false
		}
		if !groupsEqual(serial.Groups, par.Groups) {
			return false
		}
		return serial.PairsExamined == par.PairsExamined
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupsParallelProgress checks the progress hook keeps its
// contract on every lane and path: monotonically non-decreasing done
// counts, a fixed total, and a final (total, total) report.
func TestGroupsParallelProgress(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	rows := randRows(r, 500, 40, 0.3)
	for _, opts := range []Options{
		{Threshold: 1, Workers: 4},
		{Threshold: 1},
		{Threshold: 0},
	} {
		last := -1
		calls := 0
		opts.Progress = func(done, total int) {
			calls++
			if total != len(rows) {
				t.Fatalf("total = %d, want %d", total, len(rows))
			}
			if done < last {
				t.Fatalf("progress went backwards: %d after %d", done, last)
			}
			if done > total {
				t.Fatalf("done %d > total %d", done, total)
			}
			last = done
		}
		if _, err := groups(rows, opts); err != nil {
			t.Fatal(err)
		}
		if calls == 0 {
			t.Fatalf("%+v: progress hook never invoked", opts)
		}
		if last != len(rows) {
			t.Fatalf("%+v: final done = %d, want %d", opts, last, len(rows))
		}
	}
}
