package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/replay"
)

// Session event-log persistence: each live mutation session appends
// its accepted event batches as JSON lines under sessions/<id>.jsonl,
// so the stream that produced a session's state survives the process
// (the base digest plus the log replays to the session's dataset). The log
// is append-only by construction — the server only ever appends the
// prefix of a batch that applied cleanly.
//
// A memory-only store (no Dir) makes these no-ops: the session itself
// is in-memory state, and without a directory there is nothing durable
// to anchor the log to.

func (s *Store) sessionDir() string { return filepath.Join(s.opts.Dir, "sessions") }

// sessionLogPath validates the id (defensively — the server mints hex
// ids) so a hostile id cannot traverse outside the session directory.
func (s *Store) sessionLogPath(id string) (string, error) {
	if id == "" || id != filepath.Base(id) || strings.ContainsAny(id, "/\\") || strings.HasPrefix(id, ".") {
		return "", fmt.Errorf("store: invalid session id %q", id)
	}
	return filepath.Join(s.sessionDir(), id+".jsonl"), nil
}

// AppendSessionLog appends events to the session's persisted log as
// JSON lines, in one write. No-op without persistence: the events are
// encoded only when there is a directory to append them to.
func (s *Store) AppendSessionLog(id string, events []replay.Event) error {
	if s.opts.Dir == "" || len(events) == 0 {
		return nil
	}
	path, err := s.sessionLogPath(id)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := replay.WriteLog(&buf, events); err != nil {
		return fmt.Errorf("store: encode session log: %w", err)
	}
	if err := os.MkdirAll(s.sessionDir(), 0o755); err != nil {
		return fmt.Errorf("store: create %s: %w", s.sessionDir(), err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, werr := f.Write(buf.Bytes()); werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

// RemoveSessionLog deletes the persisted log when a session closes.
func (s *Store) RemoveSessionLog(id string) error {
	if s.opts.Dir == "" {
		return nil
	}
	path, err := s.sessionLogPath(id)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
