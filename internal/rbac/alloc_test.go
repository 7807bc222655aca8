package rbac_test

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/gen"
	"repro/internal/rbac"
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

// TestReadJSONReusesScratch guards the decoder's pooled scanner: a
// second decode of the paper/10 export allocates at least 0.4 MB less
// than the first, which builds the refill buffer and the ID scratch
// for 35,000 permissions. sync.Pool drops Puts at random under the
// race detector, so the guard is skipped there.
func TestReadJSONReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	ds, _, err := gen.Org(gen.DefaultOrgParams().Scaled(10))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := ds.WriteJSON(&raw); err != nil {
		t.Fatal(err)
	}
	first, second := coldThenWarm(func() {
		if _, err := rbac.ReadJSON(bytes.NewReader(raw.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("first decode %d B, second %d B", first, second)
	if first < second+400_000 {
		t.Fatalf("second decode allocated %d B against the first's %d B, want at least 0.4 MB less", second, first)
	}
}
