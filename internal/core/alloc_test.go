package core_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// coldThenWarm returns the bytes f allocates on a first and a second
// call, with every sync.Pool emptied before the first (two collections
// do that), the collector off, and one P, so the second call's Get
// finds what the first call Put in that P's slot.
func coldThenWarm(f func()) (first, second uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&m)
		return m.TotalAlloc
	}
	a := allocated()
	f()
	b := allocated()
	f()
	return b - a, allocated() - b
}

// TestAnalyzeContextReusesScratch guards the pooled working memory of
// a one-shot analysis (the per-side arrays and Role Diet's workspace):
// a second identical core.AnalyzeContext on paper/40 allocates at most
// half of what the first does, which builds them all. sync.Pool drops
// Puts at random under the race detector, so the guard is skipped
// there.
func TestAnalyzeContextReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	ds, _, err := gen.Org(gen.DefaultOrgParams().Scaled(40))
	if err != nil {
		t.Fatal(err)
	}
	first, second := coldThenWarm(func() {
		if _, err := core.AnalyzeContext(context.Background(), ds, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("first analysis %d B, second %d B", first, second)
	if second > first/2 {
		t.Fatalf("second analysis allocated %d B against the first's %d B, want at most half", second, first)
	}
}
