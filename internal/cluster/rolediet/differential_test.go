package rolediet_test

import (
	"context"
	"testing"

	"repro/internal/testkit"
)

// TestAgainstOracle is the package-local slice of the differential
// harness: the serial and parallel rolediet lanes must reproduce the brute-force O(r²) oracle partition exactly on a sample
// of the seeded corpora. The full sweep lives in internal/testkit; this
// guard makes a rolediet-only change fail in this package's own tests.
func TestAgainstOracle(t *testing.T) {
	ctx := context.Background()
	var mine []testkit.Backend
	for _, b := range testkit.Backends() {
		switch b.Name {
		case "rolediet", "rolediet-parallel":
			mine = append(mine, b)
		}
	}
	if len(mine) != 2 {
		t.Fatalf("expected 2 rolediet backends in the registry, got %d", len(mine))
	}
	corpora := testkit.Corpora(false)
	for _, c := range corpora[:8] {
		failures, err := testkit.RunCorpus(ctx, c, mine)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range failures {
			t.Error(f.Error())
		}
	}
}
