package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/replay"
)

// TestAppendSessionLog: batches land as WriteLog's JSON lines, one
// after the other, and a memory-only store writes nothing.
func TestAppendSessionLog(t *testing.T) {
	batches := [][]replay.Event{
		{{Op: replay.OpAddRole, Role: "r", Seq: 1}, {Op: replay.OpAssignUser, Role: "r", User: "u", Seq: 2}},
		{{Op: replay.OpRevokeUser, Role: "r", User: "u"}},
	}
	dir := t.TempDir()
	s := newStore(t, Options{Dir: dir})
	var want bytes.Buffer
	for _, b := range batches {
		if err := s.AppendSessionLog("abc123", b); err != nil {
			t.Fatal(err)
		}
		if err := replay.WriteLog(&want, b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "sessions", "abc123.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("session log:\n%s\nwant:\n%s", got, want.Bytes())
	}
	if err := s.AppendSessionLog("../escape", batches[0]); err == nil {
		t.Fatal("a path-traversing session id was accepted")
	}

	mem := newStore(t, Options{})
	if err := mem.AppendSessionLog("abc123", batches[0]); err != nil {
		t.Fatalf("memory-only store: %v", err)
	}
}
