package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestMeasureBasics(t *testing.T) {
	calls := 0
	stat, err := Measure(5, func() error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 || stat.Runs != 5 {
		t.Fatalf("calls = %d, stat = %+v", calls, stat)
	}
	if stat.Mean < 0 || stat.Std < 0 {
		t.Fatalf("negative stats: %+v", stat)
	}
}

func TestMeasureErrors(t *testing.T) {
	if _, err := Measure(0, func() error { return nil }); err == nil {
		t.Fatal("runs=0 accepted")
	}
	boom := errors.New("boom")
	if _, err := Measure(3, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestMeasureTimesWork(t *testing.T) {
	stat, err := Measure(2, func() error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stat.Mean < 4*time.Millisecond {
		t.Fatalf("mean %v too small for 5ms sleeps", stat.Mean)
	}
}

func TestAxisString(t *testing.T) {
	if AxisUsers.String() != "users" || AxisRoles.String() != "roles" {
		t.Fatal("axis names wrong")
	}
	if !strings.Contains(Axis(9).String(), "9") {
		t.Fatal("unknown axis name")
	}
}

func TestSweepValidate(t *testing.T) {
	bad := []SweepConfig{
		{Axis: Axis(0), Fixed: 10, Values: []int{1}},
		{Axis: AxisUsers, Fixed: 0, Values: []int{1}},
		{Axis: AxisUsers, Fixed: 10, Values: nil},
		{Axis: AxisUsers, Fixed: 10, Values: []int{0}},
		{Axis: AxisUsers, Fixed: 10, Values: []int{5}, Threshold: -1},
	}
	for i, cfg := range bad {
		if _, err := RunSweep(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestSmallSweepAllMethods(t *testing.T) {
	var progress []string
	res, err := RunSweep(SweepConfig{
		Axis:     AxisRoles,
		Fixed:    60,
		Values:   []int{40, 80},
		Runs:     2,
		Progress: func(s string) { progress = append(progress, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		for _, m := range []string{"rolediet", "dbscan", "hnsw"} {
			if _, ok := p.Timings[m]; !ok {
				t.Fatalf("missing timing for %s", m)
			}
		}
		// Exact methods must find every planted role.
		if p.Found["rolediet"] != p.Planted {
			t.Fatalf("rolediet found %d of %d planted", p.Found["rolediet"], p.Planted)
		}
		if p.Found["dbscan"] != p.Planted {
			t.Fatalf("dbscan found %d of %d planted", p.Found["dbscan"], p.Planted)
		}
		// HNSW is approximate but cannot invent roles beyond planted on
		// this workload (all non-cluster rows are distinct).
		if p.Found["hnsw"] > p.Planted {
			t.Fatalf("hnsw found %d > planted %d", p.Found["hnsw"], p.Planted)
		}
	}
	if len(progress) != 6 {
		t.Fatalf("progress lines = %d, want 6", len(progress))
	}
	table := res.Table()
	if !strings.Contains(table, "rolediet") || !strings.Contains(table, "40") {
		t.Fatalf("table rendering:\n%s", table)
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "roles,rolediet_mean_s") {
		t.Fatalf("csv header:\n%s", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("csv rows:\n%s", csv)
	}
}

func TestSweepUsersAxis(t *testing.T) {
	res, err := RunSweep(SweepConfig{
		Axis:    AxisUsers,
		Fixed:   50,
		Values:  []int{30},
		Runs:    1,
		Methods: []core.Method{core.MethodRoleDiet},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].X != 30 {
		t.Fatalf("point X = %d", res.Points[0].X)
	}
	if res.Points[0].Found["rolediet"] != res.Points[0].Planted {
		t.Fatal("rolediet missed planted roles on users axis")
	}
}

func TestRunOrgSmallScaleMatches(t *testing.T) {
	res, err := RunOrg(100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matches() {
		t.Fatalf("detected counts do not match ground truth:\n%s", res.Table())
	}
	table := res.Table()
	if strings.Contains(table, "MISMATCH") {
		t.Fatalf("table reports mismatch:\n%s", table)
	}
	for _, want := range []string{
		"standalone users", "roles sharing the same users", "consolidating class-4",
	} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestRunOrgScaleFloor(t *testing.T) {
	// scaleDiv < 1 is clamped; use a big divisor to keep it fast while
	// exercising the clamp logic path separately via Scaled.
	res, err := RunOrg(500)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleDiv != 500 {
		t.Fatalf("ScaleDiv = %d", res.ScaleDiv)
	}
	if !res.Matches() {
		t.Fatalf("tiny org mismatch:\n%s", res.Table())
	}
}

func TestOrgMemoryComparison(t *testing.T) {
	res, err := RunOrg(100)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Memory
	if m.SparseBytes <= 0 || m.DenseBytes <= 0 || m.FullAdjacencyBytes <= 0 {
		t.Fatalf("memory comparison not populated: %+v", m)
	}
	// The paper's section III-B ordering: full adjacency > dense
	// sub-matrices > sparse.
	if !(m.FullAdjacencyBytes > m.DenseBytes && m.DenseBytes > m.SparseBytes) {
		t.Fatalf("memory ordering violated: %+v", m)
	}
	if !strings.Contains(res.Table(), "storage (paper section III-B)") {
		t.Fatal("table missing storage line")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int]string{
		512:     "512 B",
		2 << 10: "2.0 KiB",
		3 << 20: "3.0 MiB",
		5 << 30: "5.0 GiB",
	}
	for n, want := range cases {
		if got := formatBytes(n); got != want {
			t.Errorf("formatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestMemoryEstimates(t *testing.T) {
	dense := memoryBytesDense(100, 1000)
	if dense != 8*100*16 {
		t.Fatalf("dense estimate = %d", dense)
	}
	// One edge per row: 100 int32 columns plus 100 slice headers, far
	// below the dense footprint.
	rows := memoryBytesRows(100, 100)
	if rows != 24*100+4*100 {
		t.Fatalf("rows estimate = %d", rows)
	}
	if rows >= dense {
		t.Fatalf("sparse %d should beat dense %d at this density", rows, dense)
	}
}
