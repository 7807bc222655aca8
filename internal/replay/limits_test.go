package replay

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestReadLogLimitedGrowsToTheLineCap: the scanner starts small, so a
// valid line several times its starting size must still decode, and
// the same line over MaxLineBytes must still be ErrLogTooLarge.
func TestReadLogLimitedGrowsToTheLineCap(t *testing.T) {
	user := strings.Repeat("u", 40_000)
	line := `{"op":"add-user","user":"` + user + `"}` + "\n"
	events, err := ReadLogLimited(strings.NewReader(line), Limits{MaxLineBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || string(events[0].User) != user {
		t.Fatalf("decoded %d events", len(events))
	}
	if _, err := ReadLogLimited(strings.NewReader(line), Limits{MaxLineBytes: 32 << 10}); !errors.Is(err, ErrLogTooLarge) {
		t.Fatalf("40 KB line under a 32 KiB cap: err = %v, want ErrLogTooLarge", err)
	}
}

// TestReadLogLimitedOneEventBytes guards the per-request cost of a
// one-event batch, the common case of a live session: the reader's
// buffer follows the line, not the 1 MiB line cap.
func TestReadLogLimitedOneEventBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	line := []byte(`{"op":"assign-user","role":"r-drift-00042","user":"u-drift-00017","seq":42}` + "\n")
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadLogLimited(bytes.NewReader(line), Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per one-event read", perRead)
	if perRead >= 8<<10 {
		t.Fatalf("a one-event read allocates %d bytes, want under 8 KiB", perRead)
	}
}
