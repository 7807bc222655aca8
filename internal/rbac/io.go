package rbac

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"unicode/utf8"
)

// MarshalJSON implements json.Marshaler. It writes the canonical
// encoding store.Digest hashes, byte for byte what json.Marshal made of
// the schema's five fields when they were a struct:
//
//	{"users":[...],"roles":[...],"permissions":[...],
//	 "userAssignments":[{"role":...,"user":...},...],
//	 "permissionAssignments":[{"role":...,"permission":...},...]}
//
// Entities are in index order, and each role's edges follow the role
// order, sorted by the other endpoint's index. The output is compact and
// escaped as encoding/json escapes strings, HTML characters included.
// It is appended into one buffer sized by a first pass over the IDs and
// rows, whatever the IDs hold.
func (d *Dataset) MarshalJSON() ([]byte, error) {
	n := len(`{"users":[],"roles":[],"permissions":[],"userAssignments":[],"permissionAssignments":[]}`) +
		idsLen(d.users) + idsLen(d.roles) + idsLen(d.perms) +
		edgesLen(d.roles, d.roleUsers, d.users, len(`{"role":,"user":},`)) +
		edgesLen(d.roles, d.rolePerms, d.perms, len(`{"role":,"permission":},`))
	return d.appendCanonical(make([]byte, 0, n), nil), nil
}

// canonicalChunk is how many bytes WriteCanonical gathers before it
// hands them to its writer.
const canonicalChunk = 32 << 10

// WriteCanonical writes MarshalJSON's bytes to w through one buffer of
// about canonicalChunk bytes, so the encoding is never held whole, and
// returns how many bytes w accepted. After a failed write it stops
// writing and returns that error.
func (d *Dataset) WriteCanonical(w io.Writer) (int64, error) {
	var (
		n   int64
		err error
	)
	write := func(b []byte) {
		if err == nil {
			var m int
			m, err = w.Write(b)
			n += int64(m)
		}
	}
	b := d.appendCanonical(make([]byte, 0, canonicalChunk+512), func(b []byte) []byte {
		if len(b) < canonicalChunk {
			return b
		}
		write(b)
		return b[:0]
	})
	write(b)
	return n, err
}

// appendCanonical is the one walker behind MarshalJSON and
// WriteCanonical: it appends the canonical encoding to b, calling
// spill, when set, after each element. spill may hand b's bytes on and
// return b emptied.
func (d *Dataset) appendCanonical(b []byte, spill func([]byte) []byte) []byte {
	b = append(b, `{"users":`...)
	b = appendIDs(b, d.users, spill)
	b = append(b, `,"roles":`...)
	b = appendIDs(b, d.roles, spill)
	b = append(b, `,"permissions":`...)
	b = appendIDs(b, d.perms, spill)
	b = append(b, `,"userAssignments":`...)
	b = appendEdges(b, d.roles, d.roleUsers, d.users, `,"user":`, spill)
	b = append(b, `,"permissionAssignments":`...)
	b = appendEdges(b, d.roles, d.rolePerms, d.perms, `,"permission":`, spill)
	return append(b, '}')
}

// quotedLen is the encoded length of s, quotes included.
func quotedLen[S ~string](s S) int {
	n := len(s) + 2
	if plain(s) {
		return n
	}
	for i := 0; i < len(s); {
		size, esc := escapeAt(s, i)
		if esc != "" {
			n += len(esc) - size
		}
		i += size
	}
	return n
}

// idsLen bounds the encoded length of an ID array's elements: exact
// but for one comma.
func idsLen[S ~string](ids []S) int {
	n := 0
	for _, id := range ids {
		n += quotedLen(id) + 1
	}
	return n
}

// edgesLen bounds the encoded length of one side's edge objects, each
// costing fixed bytes besides its two quoted endpoints.
func edgesLen[S ~string](roles []RoleID, rows [][]int32, ids []S, fixed int) int {
	n := 0
	for ri, row := range rows {
		n += len(row) * (fixed + quotedLen(roles[ri]))
		for _, i := range row {
			n += quotedLen(ids[i])
		}
	}
	return n
}

// appendIDs appends an ID array, calling spill (when set) after each
// ID.
func appendIDs[S ~string](b []byte, ids []S, spill func([]byte) []byte) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, id)
		if spill != nil {
			b = spill(b)
		}
	}
	return append(b, ']')
}

// appendEdges appends one side's edge array, role by role along the
// rows, calling spill (when set) after each edge.
func appendEdges[S ~string](b []byte, roles []RoleID, rows [][]int32, ids []S, key string, spill func([]byte) []byte) []byte {
	b = append(b, '[')
	first := true
	for ri, row := range rows {
		for _, i := range row {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, `{"role":`...)
			b = appendString(b, roles[ri])
			b = append(b, key...)
			b = appendString(b, ids[i])
			b = append(b, '}')
			if spill != nil {
				b = spill(b)
			}
		}
	}
	return append(b, ']')
}

// escapes holds, for each ASCII byte, the escape encoding/json writes
// for it (HTML characters included), or "" when it writes the byte as
// itself.
var escapes = func() (t [utf8.RuneSelf]string) {
	const hex = "0123456789abcdef"
	for c := 0; c < ' '; c++ {
		t[c] = `\u00` + hex[c>>4:c>>4+1] + hex[c&0xf:c&0xf+1]
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\b`, `\f`, `\n`, `\r`, `\t`
	t['"'], t['\\'] = `\"`, `\\`
	t['<'], t['>'], t['&'] = `\u003c`, `\u003e`, `\u0026`
	return t
}()

// escapeAt reports how encoding/json writes the text at s[i]: how many
// bytes of s it covers, and the escape that replaces them, or "" when
// they are written as they are. Beyond ASCII, each byte of invalid
// UTF-8 becomes \ufffd, and U+2028 and U+2029 are escaped.
func escapeAt[S ~string](s S, i int) (size int, esc string) {
	if c := s[i]; c < utf8.RuneSelf {
		return 1, escapes[c]
	}
	r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
	switch {
	case r == utf8.RuneError && size == 1:
		return 1, `\ufffd`
	case r == '\u2028':
		return size, `\u2028`
	case r == '\u2029':
		return size, `\u2029`
	}
	return size, ""
}

// plain reports whether encoding/json writes s as itself between
// quotes: ASCII with no byte that escapes has an escape for.
func plain[S ~string](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || escapes[c] != "" {
			return false
		}
	}
	return true
}

// appendString appends s as encoding/json writes a string: between
// quotes, with the runs escapeAt leaves alone copied and everything
// else replaced by its escape. It allocates only to grow b.
func appendString[S ~string](b []byte, s S) []byte {
	b = append(b, '"')
	if plain(s) {
		b = append(b, s...)
		return append(b, '"')
	}
	start := 0
	for i := 0; i < len(s); {
		size, esc := escapeAt(s, i)
		if esc != "" {
			b = append(b, s[start:i]...)
			b = append(b, esc...)
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// UnmarshalJSON implements json.Unmarshaler through ReadJSON, so a
// dataset embedded in a larger document follows the same rules as one
// read on its own. null is a no-op, per the encoding/json convention.
func (d *Dataset) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	fresh, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		return err
	}
	*d = *fresh
	return nil
}

// WriteJSON serialises the dataset to w.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("rbac: write dataset: %w", err)
	}
	return nil
}
