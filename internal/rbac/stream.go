package rbac

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// maxDepth is encoding/json's nesting limit, applied to the whole
// document so the decoder accepts exactly the nesting json.Unmarshal
// accepts.
const maxDepth = 10000

// ReadJSON parses a dataset from r. It is the one JSON-to-Dataset
// decoder: uploads, inline request bodies, store reloads, fleet
// transfers, the CLI and Dataset.UnmarshalJSON all go through it.
//
// The document streams past token by token, so memory stays
// proportional to the dataset's entity and edge counts — never to the
// byte length of the input. The schema is the one MarshalJSON writes
// (users/roles/permissions arrays plus userAssignments/
// permissionAssignments edge lists); entity insertion order per kind is
// the array order, so DigestOf over the result is that of the exported
// dataset. Unknown top-level fields are skipped in bounded memory.
//
// Where json.Unmarshal into the same schema would be lenient, the
// decoder is strict, because for an ingest path leniency means
// silently dropping data:
//
//   - Top-level keys match exactly; "Users" is an unknown field, not
//     the users array.
//   - A repeated top-level key is rejected rather than last-wins.
//   - The top-level value must be an object; null is rejected.
//
// Like json.Unmarshal, it rejects anything but whitespace after the
// object and nesting deeper than encoding/json's limit.
//
// Edges may reference entities declared later in the document (any
// field order is legal JSON); such edges are buffered and applied once
// the whole document has streamed past. Edges whose entities never
// appear fail with the usual ErrUnknown* error. The result is
// Validate()d before it is returned.
func ReadJSON(r io.Reader) (*Dataset, error) {
	d, err := readDataset(r)
	if err != nil {
		return nil, fmt.Errorf("rbac: read dataset: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// ReadJSONStream is ReadJSON under its older name, kept because the
// benchmark's analyze-cold ingest span calls it.
func ReadJSONStream(r io.Reader) (*Dataset, error) { return ReadJSON(r) }

func readDataset(r io.Reader) (*Dataset, error) {
	dec := json.NewDecoder(&inputGuard{r: r})
	// Skipped numbers stay text: converting them could fail on values
	// (1e999) that json.Unmarshal skips without complaint.
	dec.UseNumber()
	d := NewDataset()

	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '{' {
		return nil, fmt.Errorf("top-level value is %v, want an object", tok)
	}

	// Edges seen before their endpoints; applied after the full
	// document has streamed past.
	var pendingUsers []userEdgeJSON
	var pendingPerms []permEdgeJSON

	seen := make(map[string]bool, 5)
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := keyTok.(string)
		if seen[key] {
			return nil, fmt.Errorf("field %q appears twice", key)
		}
		seen[key] = true

		switch key {
		case "users":
			err = decodeIDs(dec, d.AddUser)
		case "roles":
			err = decodeIDs(dec, d.AddRole)
		case "permissions":
			err = decodeIDs(dec, d.AddPermission)
		case "userAssignments":
			err = decodeArray(dec, func() error {
				var e userEdgeJSON
				if err := dec.Decode(&e); err != nil {
					return err
				}
				if aerr := d.AssignUser(e.Role, e.User); aerr != nil {
					if errors.Is(aerr, ErrUnknownRole) || errors.Is(aerr, ErrUnknownUser) {
						pendingUsers = append(pendingUsers, e)
						return nil
					}
					return aerr
				}
				return nil
			})
		case "permissionAssignments":
			err = decodeArray(dec, func() error {
				var e permEdgeJSON
				if err := dec.Decode(&e); err != nil {
					return err
				}
				if aerr := d.AssignPermission(e.Role, e.Permission); aerr != nil {
					if errors.Is(aerr, ErrUnknownRole) || errors.Is(aerr, ErrUnknownPermission) {
						pendingPerms = append(pendingPerms, e)
						return nil
					}
					return aerr
				}
				return nil
			})
		default:
			err = skipValue(dec)
		}
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", key, err)
		}
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return nil, err
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("unexpected %v after the top-level object", tok)
		}
		return nil, err
	}

	for _, e := range pendingUsers {
		if err := d.AssignUser(e.Role, e.User); err != nil {
			return nil, fmt.Errorf("userAssignments: %w", err)
		}
	}
	for _, e := range pendingPerms {
		if err := d.AssignPermission(e.Role, e.Permission); err != nil {
			return nil, fmt.Errorf("permissionAssignments: %w", err)
		}
	}
	return d, nil
}

// decodeArray consumes one JSON array (or null), calling elem once per
// element with dec positioned at that element.
func decodeArray(dec *json.Decoder, elem func() error) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok == nil { // null field value, same as absent
		return nil
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		return fmt.Errorf("got %v, want an array", tok)
	}
	for dec.More() {
		if err := elem(); err != nil {
			return err
		}
	}
	_, err = dec.Token() // closing ']'
	return err
}

// decodeIDs consumes one array of entity IDs (or null), registering
// each through add.
func decodeIDs[ID ~string](dec *json.Decoder, add func(ID) error) error {
	return decodeArray(dec, func() error {
		var id ID
		if err := dec.Decode(&id); err != nil {
			return err
		}
		return add(id)
	})
}

// skipValue consumes one JSON value of any shape without materialising
// it: unknown fields stream past in bounded memory too.
func skipValue(dec *json.Decoder) error {
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('['), json.Delim('{'):
			depth++
		case json.Delim(']'), json.Delim('}'):
			depth--
		}
		if depth == 0 {
			return nil
		}
	}
}

// inputGuard sits between the input and the json.Decoder and enforces
// what the decoder's token API does not:
//
//   - It collapses every run of JSON whitespace outside string literals
//     to a single space. The decoder does not discard inter-token
//     whitespace until it finds the next token, so a run of whitespace
//     would grow its buffer to the run's full length — a padding bomb.
//     Inter-token whitespace is semantically void, so the transform
//     preserves the document's value exactly (string contents pass
//     through untouched, escape sequences included).
//   - It fails nesting deeper than maxDepth, which json.Unmarshal
//     rejects but Token does not check.
type inputGuard struct {
	r        io.Reader
	buf      [4096]byte
	pending  []byte // unconsumed tail of the last fill
	inStr    bool
	escaped  bool
	wasSpace bool
	depth    int
}

func (s *inputGuard) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		if len(s.pending) == 0 {
			n, err := s.r.Read(s.buf[:])
			s.pending = s.buf[:n]
			if n == 0 {
				return 0, err
			}
		}
		out := 0
		for len(s.pending) > 0 && out < len(p) {
			b := s.pending[0]
			s.pending = s.pending[1:]
			if s.inStr {
				switch {
				case s.escaped:
					s.escaped = false
				case b == '\\':
					s.escaped = true
				case b == '"':
					s.inStr = false
				}
				p[out] = b
				out++
				continue
			}
			if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
				if s.wasSpace {
					continue
				}
				s.wasSpace = true
				p[out] = ' '
				out++
				continue
			}
			s.wasSpace = false
			switch b {
			case '"':
				s.inStr = true
			case '[', '{':
				if s.depth++; s.depth > maxDepth {
					return 0, fmt.Errorf("exceeded max depth %d", maxDepth)
				}
			case ']', '}':
				s.depth--
			}
			p[out] = b
			out++
		}
		// A chunk of pure run-continuation whitespace can squeeze to
		// nothing; keep filling rather than returning a zero-byte read.
		if out > 0 {
			return out, nil
		}
	}
}
