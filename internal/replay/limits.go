package replay

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrLogTooLarge reports an event stream exceeding the reader's
// configured bounds — an overlong line or too many events. Callers
// (the HTTP layer in particular) match it with errors.Is to turn a
// log bomb into a 400 instead of an unbounded allocation.
var ErrLogTooLarge = errors.New("replay: event log exceeds limits")

// Limits bounds ReadLogLimited. Zero fields take the package defaults.
type Limits struct {
	// MaxLineBytes caps one JSONL line; default 1 MiB. A single event
	// is a handful of identifiers, so anything near the cap is hostile
	// or corrupt, not real.
	MaxLineBytes int
	// MaxEvents caps the number of decoded events; default 1,000,000.
	MaxEvents int
}

// The package defaults, shared with ReadLog.
const (
	DefaultMaxLineBytes = 1 << 20
	DefaultMaxEvents    = 1_000_000
)

func (l Limits) withDefaults() Limits {
	if l.MaxLineBytes <= 0 {
		l.MaxLineBytes = DefaultMaxLineBytes
	}
	if l.MaxEvents <= 0 {
		l.MaxEvents = DefaultMaxEvents
	}
	return l
}

// ReadLogLimited decodes a JSONL event stream, validating every event
// and enforcing lim. Exceeding either bound fails with an error
// wrapping ErrLogTooLarge; memory use is bounded by the limits however
// large the stream is, and grows with the longest line actually read.
func ReadLogLimited(r io.Reader, lim Limits) ([]Event, error) {
	lim = lim.withDefaults()
	var out []Event
	sc := bufio.NewScanner(r)
	// No starting buffer: the scanner starts at 4 KiB and doubles up to
	// MaxLineBytes only for a line that needs it, so a batch of a few
	// events costs a few KiB rather than a buffer sized for the limit.
	sc.Buffer(nil, lim.MaxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if len(out) >= lim.MaxEvents {
			return nil, fmt.Errorf("%w: more than %d events", ErrLogTooLarge, lim.MaxEvents)
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("replay: line %d: %w", line, err)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("replay: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("%w: line %d longer than %d bytes", ErrLogTooLarge, line+1, lim.MaxLineBytes)
		}
		return nil, fmt.Errorf("replay: scan: %w", err)
	}
	return out, nil
}
