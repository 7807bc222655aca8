package rbac

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit, applied to the whole
// document so the decoder accepts exactly the nesting json.Unmarshal
// accepts.
const maxDepth = 10000

// ReadJSON parses a dataset from r. It is the one JSON-to-Dataset
// decoder: uploads, inline request bodies, store reloads, fleet
// transfers, the CLI and Dataset.UnmarshalJSON all go through it.
//
// It is a byte scanner written for the schema MarshalJSON writes
// (users/roles/permissions arrays plus userAssignments/
// permissionAssignments edge lists). The input streams through one
// fixed refill buffer, so memory stays proportional to the dataset's
// entity and edge counts, never to the byte length of the input or the
// length of a whitespace run. Each entity ID becomes one string; edge
// endpoints are looked up without a copy. An ID array is gathered in
// fixed-size blocks of scratch, reused for all three arrays, and each
// kind's ID slice and index are then allocated once, at their final
// size. The scanner, its refill buffer and its scratch blocks come from
// a pool, so one call's scratch serves the next; the dataset never
// shares memory with it. Entity insertion order per kind is the array order, so the
// digest of the result is that of the exported dataset. Unknown fields
// are skipped in bounded memory but still checked against the JSON
// grammar.
//
// Values decode as json.Unmarshal decodes them into the schema: string
// escapes, invalid UTF-8 and lone surrogates (U+FFFD) alike; a null ID
// or edge field is the empty string, a null edge the ("", "") edge; edge
// keys match case-insensitively and the last non-null value of a
// repeated edge key wins; any other value type is an error. Where
// json.Unmarshal would be lenient, the decoder is strict, because for
// an ingest path leniency means silently dropping data:
//
//   - Top-level keys match exactly; "Users" is an unknown field, not
//     the users array.
//   - A repeated top-level key is rejected rather than last-wins.
//   - The top-level value must be an object; null is rejected.
//
// Like json.Unmarshal, it rejects anything but whitespace after the
// object and nesting deeper than encoding/json's limit. An error from
// r is wrapped, so errors.Is and errors.As still find it.
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

// edge is an assignment whose endpoints were not all registered when it
// streamed past.
type edge struct{ role, other string }

func readDataset(r io.Reader) (*Dataset, error) {
	s := scannerPool.Get().(*scanner)
	defer func() {
		s.reset()
		scannerPool.Put(s)
	}()
	return s.read(r)
}

// read decodes one dataset from r. s must be fresh or reset.
func (s *scanner) read(r io.Reader) (*Dataset, error) {
	s.r = r
	d := NewDataset()
	c, err := s.peek()
	if err != nil {
		return nil, err
	}
	if c != '{' {
		return nil, fmt.Errorf("top-level value starts with %q, want an object", c)
	}
	if err := s.open(); err != nil {
		return nil, err
	}

	// Edges seen before their endpoints; applied after the full
	// document has streamed past.
	var pendingUsers, pendingPerms []edge

	seen := make(map[string]bool, 5)
	for n := 0; ; n++ {
		more, err := s.elem('}', n)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		k, err := s.key()
		if err != nil {
			return nil, err
		}
		key := string(k)
		if seen[key] {
			return nil, fmt.Errorf("field %q appears twice", key)
		}
		seen[key] = true

		switch key {
		case "users":
			err = readIDs(s, "user", &d.users, &d.userIdx)
		case "roles":
			err = readIDs(s, "role", &d.roles, &d.roleIdx)
			if n := len(d.roles); n > 0 {
				d.roleUsers, d.rolePerms = make([][]int32, n), make([][]int32, n)
			}
		case "permissions":
			err = readIDs(s, "permission", &d.perms, &d.permIdx)
		case "userAssignments":
			err = s.edges(keyUser, func(role, user []byte) {
				ri, ui := d.roleIdx.findBytes(d.roles, role), d.userIdx.findBytes(d.users, user)
				if ri >= 0 && ui >= 0 {
					d.roleUsers[ri] = append(d.roleUsers[ri], int32(ui))
					return
				}
				pendingUsers = append(pendingUsers, edge{string(role), string(user)})
			})
		case "permissionAssignments":
			err = s.edges(keyPermission, func(role, perm []byte) {
				ri, pi := d.roleIdx.findBytes(d.roles, role), d.permIdx.findBytes(d.perms, perm)
				if ri >= 0 && pi >= 0 {
					d.rolePerms[ri] = append(d.rolePerms[ri], int32(pi))
					return
				}
				pendingPerms = append(pendingPerms, edge{string(role), string(perm)})
			})
		default:
			err = s.skip()
		}
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", key, err)
		}
	}
	if c, err := s.peek(); err == nil {
		return nil, fmt.Errorf("unexpected %q after the top-level object", c)
	} else if s.rerr != io.EOF {
		return nil, err
	}

	for _, e := range pendingUsers {
		ri, ui, err := d.userEdge(RoleID(e.role), UserID(e.other))
		if err != nil {
			return nil, fmt.Errorf("userAssignments: %w", err)
		}
		d.roleUsers[ri] = append(d.roleUsers[ri], int32(ui))
	}
	for _, e := range pendingPerms {
		ri, pi, err := d.permEdge(RoleID(e.role), PermissionID(e.other))
		if err != nil {
			return nil, fmt.Errorf("permissionAssignments: %w", err)
		}
		d.rolePerms[ri] = append(d.rolePerms[ri], int32(pi))
	}
	// Edges were appended in document order; one sort per row makes
	// the rows canonical whatever that order was.
	sortRows(d.roleUsers)
	sortRows(d.rolePerms)
	return d, nil
}

// idBlock is the length of one block of the decoder's ID scratch. Fixed
// blocks, unlike one slice grown by append, are never copied as an
// array outgrows them, so a decode on a cold pool allocates the scratch
// once.
const idBlock = 4096

// readIDs consumes one array of entity IDs (or null) into *ids and its
// index *t, which must be empty. A null element is the empty ID. The IDs
// gather in the scanner's scratch blocks until the array ends; then the
// slice is allocated at its length and the index built once, the table
// the same Add* calls would leave. A repeated ID is the ErrDuplicate
// those calls give for the first repeat; kind names it. An empty array
// leaves the kind as it was.
func readIDs[ID ~string](s *scanner, kind string, ids *[]ID, t *index[ID]) error {
	if null, err := s.arrayOrNull(); null || err != nil {
		return err
	}
	n := 0
	for ; ; n++ {
		more, err := s.elem(']', n)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		id, _, err := s.strOrNull()
		if err != nil {
			return err
		}
		if n == len(s.ids)*idBlock {
			s.ids = append(s.ids, make([]string, idBlock))
		}
		s.ids[n/idBlock][n%idBlock] = string(id)
	}
	if n == 0 {
		return nil
	}
	out := make([]ID, n)
	for p := range out {
		out[p] = ID(s.ids[p/idBlock][p%idBlock])
	}
	table, dup := build(out)
	if dup >= 0 {
		return errDuplicate(kind, out[dup])
	}
	*ids, *t = out, table
	return nil
}

// Edge-object keys: every edge has a role and a user or a permission.
var (
	keyRole       = []byte("role")
	keyUser       = []byte("user")
	keyPermission = []byte("permission")
)

// edges consumes one edge array (or null), calling add with each edge's
// role and its other endpoint, the one under the key field. Both slices
// are scanner scratch, valid only during the call.
func (s *scanner) edges(field []byte, add func(role, other []byte)) error {
	if null, err := s.arrayOrNull(); null || err != nil {
		return err
	}
	for n := 0; ; n++ {
		more, err := s.elem(']', n)
		if !more || err != nil {
			return err
		}
		c, err := s.peek()
		if err != nil {
			return err
		}
		role, other := s.role[:0], s.other[:0]
		switch c {
		case 'n':
			err = s.literal("null")
		case '{':
			err = s.open()
			for m := 0; err == nil; m++ {
				if more, err = s.elem('}', m); !more || err != nil {
					break
				}
				var k []byte
				if k, err = s.key(); err != nil {
					break
				}
				// Like encoding/json, an edge key matches its field
				// case-insensitively, and a null value leaves the field
				// as it is.
				var v []byte
				var null bool
				switch {
				case bytes.EqualFold(k, keyRole):
					if v, null, err = s.strOrNull(); err == nil && !null {
						role = append(role[:0], v...)
					}
				case bytes.EqualFold(k, field):
					if v, null, err = s.strOrNull(); err == nil && !null {
						other = append(other[:0], v...)
					}
				default:
					err = s.skip()
				}
			}
		default:
			err = fmt.Errorf("edge starts with %q, want an object", c)
		}
		if err != nil {
			return err
		}
		add(role, other)
		s.role, s.other = role, other
	}
}

// scanner reads JSON through one fixed refill buffer. Each method
// consumes one syntactic unit; a returned byte slice stays valid only
// until the next call.
type scanner struct {
	r        io.Reader
	buf      [32 << 10]byte
	pos, end int   // unread bytes are buf[pos:end]
	rerr     error // the reader's error, reported once buf is drained
	depth    int

	// Reusable scratch: a string literal that needs unquoting or
	// crosses a refill (raw, str), an object key (keyBuf), and an edge's
	// two endpoints.
	raw, str, keyBuf, role, other []byte
	// ids holds the entity IDs of the array being read, idBlock to a
	// block; the blocks serve the users, roles and permissions arrays
	// in turn, and later reads.
	ids [][]string
}

// scannerPool recycles scanners across ReadJSON calls, so the refill
// buffer and the scratch, sized by the largest arrays decoded, are not
// allocated again per call.
var scannerPool = sync.Pool{New: func() any { return new(scanner) }}

// maxPooledBytes bounds the byte scratch a pooled scanner keeps: one
// huge string literal should not stay pinned in an idle pool.
const maxPooledBytes = 1 << 20

// reset readies s for another read, keeping its buffers. It drops the
// reader and clears every ID string the scratch still points to, so an
// idle pool keeps no decoded (or since deleted) dataset's IDs alive,
// however the read ended.
func (s *scanner) reset() {
	for _, b := range s.ids {
		clear(b)
	}
	s.r, s.rerr, s.pos, s.end, s.depth = nil, nil, 0, 0, 0
	for _, b := range []*[]byte{&s.raw, &s.str, &s.keyBuf, &s.role, &s.other} {
		if cap(*b) > maxPooledBytes {
			*b = nil
		}
	}
}

// fill refills an exhausted buffer, reporting whether a byte is ready.
func (s *scanner) fill() bool {
	for s.pos == s.end {
		if s.rerr != nil {
			return false
		}
		n, err := s.r.Read(s.buf[:])
		s.pos, s.end, s.rerr = 0, n, err
	}
	return true
}

// fail is the error for input that ended early: the reader's own
// error, or io.ErrUnexpectedEOF when the input simply stopped.
func (s *scanner) fail() error {
	if s.rerr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return s.rerr
}

// peek skips whitespace and returns the next byte without consuming it.
func (s *scanner) peek() (byte, error) {
	for s.fill() {
		for ; s.pos < s.end; s.pos++ {
			switch c := s.buf[s.pos]; c {
			case ' ', '\t', '\n', '\r':
			default:
				return c, nil
			}
		}
	}
	return 0, s.fail()
}

// next returns the next byte, whitespace included, without consuming
// it; ok is false at the end of the input.
func (s *scanner) next() (c byte, ok bool) {
	if !s.fill() {
		return 0, false
	}
	return s.buf[s.pos], true
}

// open consumes the '{' or '[' at pos, one level deeper.
func (s *scanner) open() error {
	s.pos++
	if s.depth++; s.depth > maxDepth {
		return fmt.Errorf("exceeded max depth %d", maxDepth)
	}
	return nil
}

// elem moves to element n of the open container that close ends. It
// consumes the ',' before every element but the first, and reports
// false, consuming close, at the container's end.
func (s *scanner) elem(close byte, n int) (bool, error) {
	c, err := s.peek()
	switch {
	case err != nil:
		return false, err
	case c == close:
		s.pos++
		s.depth--
		return false, nil
	case n == 0:
		return true, nil
	case c != ',':
		return false, fmt.Errorf("unexpected %q after an element", c)
	}
	s.pos++
	return true, nil
}

// arrayOrNull consumes null (reporting true) or the '[' of an array.
func (s *scanner) arrayOrNull() (null bool, err error) {
	c, err := s.peek()
	switch {
	case err != nil:
		return false, err
	case c == 'n':
		return true, s.literal("null")
	case c != '[':
		return false, fmt.Errorf("value starts with %q, want an array", c)
	}
	return false, s.open()
}

// key consumes an object key and the ':' after it. The key is copied
// to scratch first: the colon may lie past a refill.
func (s *scanner) key() ([]byte, error) {
	c, err := s.peek()
	if err != nil {
		return nil, err
	}
	if c != '"' {
		return nil, fmt.Errorf("object key starts with %q, want a string", c)
	}
	k, err := s.string(true)
	if err != nil {
		return nil, err
	}
	s.keyBuf = append(s.keyBuf[:0], k...)
	if c, err = s.peek(); err != nil {
		return nil, err
	}
	if c != ':' {
		return nil, fmt.Errorf("unexpected %q after an object key", c)
	}
	s.pos++
	return s.keyBuf, nil
}

// strOrNull consumes a string, returning its value, or null.
func (s *scanner) strOrNull() (v []byte, null bool, err error) {
	c, err := s.peek()
	switch {
	case err != nil:
		return nil, false, err
	case c == '"':
		v, err = s.string(true)
		return v, false, err
	case c == 'n':
		return nil, true, s.literal("null")
	}
	return nil, false, fmt.Errorf("value starts with %q, want a string", c)
}

// skip consumes one value of any shape, checking its grammar but
// keeping none of it.
func (s *scanner) skip() error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{', '[':
		close := byte('}')
		if c == '[' {
			close = ']'
		}
		if err := s.open(); err != nil {
			return err
		}
		for n := 0; ; n++ {
			more, err := s.elem(close, n)
			if !more || err != nil {
				return err
			}
			if close == '}' {
				if _, err := s.key(); err != nil {
					return err
				}
			}
			if err := s.skip(); err != nil {
				return err
			}
		}
	case '"':
		_, err = s.string(false)
	case 't':
		err = s.literal("true")
	case 'f':
		err = s.literal("false")
	case 'n':
		err = s.literal("null")
	default:
		err = s.number()
	}
	return err
}

// literal consumes the keyword word.
func (s *scanner) literal(word string) error {
	for i := 0; i < len(word); i++ {
		c, ok := s.next()
		if !ok {
			return s.fail()
		}
		if c != word[i] {
			return fmt.Errorf("invalid literal: want %q", word)
		}
		s.pos++
	}
	return nil
}

// number consumes a number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// What follows it is the enclosing container's to check, so "01" fails
// there, on the '1'.
func (s *scanner) number() error {
	s.accept("-")
	if !s.accept("0") && s.digits() == 0 {
		return errors.New("invalid number")
	}
	if s.accept(".") && s.digits() == 0 {
		return errors.New("invalid number: no digits after the decimal point")
	}
	if s.accept("eE") {
		s.accept("+-")
		if s.digits() == 0 {
			return errors.New("invalid number: no digits in the exponent")
		}
	}
	return nil
}

// accept consumes the next byte if it is one of set.
func (s *scanner) accept(set string) bool {
	c, ok := s.next()
	if ok && strings.IndexByte(set, c) >= 0 {
		s.pos++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	n := 0
	for c, ok := s.next(); ok && '0' <= c && c <= '9'; c, ok = s.next() {
		s.pos++
		n++
	}
	return n
}

// string consumes the string literal at pos. With keep it returns the
// literal's value, unquoted as encoding/json unquotes it; otherwise it
// only checks the literal. A plain-ASCII literal that lies within the
// buffer is returned as a slice of it; any other goes through scratch.
func (s *scanner) string(keep bool) ([]byte, error) {
	s.pos++ // opening quote
	start := s.pos
	for ; s.pos < s.end; s.pos++ {
		c := s.buf[s.pos]
		if c == '"' {
			s.pos++
			return s.buf[start : s.pos-1], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
	}

	// The slow path gathers the raw literal, escapes included, checking
	// its grammar byte by byte across refills.
	s.raw = s.raw[:0]
	if keep {
		s.raw = append(s.raw, s.buf[start:s.pos]...)
	}
	escaped, hex, plain := false, 0, true
	for {
		if !s.fill() {
			return nil, s.fail()
		}
		c := s.buf[s.pos]
		s.pos++
		switch {
		case hex > 0:
			if !isHex(c) {
				return nil, fmt.Errorf("invalid \\u escape: %q is not a hex digit", c)
			}
			hex--
		case escaped:
			escaped = false
			switch c {
			case 'u':
				hex = 4
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			default:
				return nil, fmt.Errorf("invalid escape \\%c in string", c)
			}
		case c == '"':
			if !keep || plain && utf8.Valid(s.raw) {
				return s.raw, nil
			}
			s.str = unquote(s.str[:0], s.raw)
			return s.str, nil
		case c == '\\':
			escaped, plain = true, false
		case c < ' ':
			return nil, fmt.Errorf("control character %q in string", c)
		}
		if keep {
			s.raw = append(s.raw, c)
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote appends the value of raw, a grammatical string literal's
// contents, to dst. It follows encoding/json: escapes are decoded, a
// \u surrogate pair combines into one rune, and a lone surrogate or an
// invalid UTF-8 byte becomes U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
		case c == '\\':
			c = raw[i+1]
			if j := strings.IndexByte("bfnrt", c); j >= 0 {
				c = "\b\f\n\r\t"[j]
			}
			dst = append(dst, c) // else '"', '\\' or '/', itself
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// hex4 decodes the four hex digits at the start of b.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
