package rbac

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// MarshalJSON implements json.Marshaler. It writes the canonical
// encoding DigestOf hashes, byte for byte what json.Marshal made of the
// schema's five fields when they were a struct:
//
//	{"users":[...],"roles":[...],"permissions":[...],
//	 "userAssignments":[{"role":...,"user":...},...],
//	 "permissionAssignments":[{"role":...,"permission":...},...]}
//
// Entities are in index order, and each role's edges follow the role
// order, sorted by the other endpoint's index. The output is compact and
// escaped as encoding/json escapes strings, HTML characters included.
// It is appended into one buffer sized by a first pass over the IDs and
// rows.
func (d *Dataset) MarshalJSON() ([]byte, error) {
	n := len(`{"users":[],"roles":[],"permissions":[],"userAssignments":[],"permissionAssignments":[]}`) +
		idsLen(d.users) + idsLen(d.roles) + idsLen(d.perms) +
		edgesLen(d.roles, d.roleUsers, d.users, len(`{"role":,"user":},`)) +
		edgesLen(d.roles, d.rolePerms, d.perms, len(`{"role":,"permission":},`))
	b := make([]byte, 0, n)
	b = append(b, `{"users":`...)
	b = appendIDs(b, d.users)
	b = append(b, `,"roles":`...)
	b = appendIDs(b, d.roles)
	b = append(b, `,"permissions":`...)
	b = appendIDs(b, d.perms)
	b = append(b, `,"userAssignments":`...)
	b = appendEdges(b, d.roles, d.roleUsers, d.users, `,"user":`)
	b = append(b, `,"permissionAssignments":`...)
	b = appendEdges(b, d.roles, d.rolePerms, d.perms, `,"permission":`)
	return append(b, '}'), nil
}

// quotedLen bounds the encoded length of s: exact for a plain string,
// and six bytes (a \u escape) per byte otherwise.
func quotedLen[S ~string](s S) int {
	if plain(s) {
		return len(s) + 2
	}
	return 6*len(s) + 2
}

// idsLen bounds the encoded length of an ID array's elements.
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

func appendIDs[S ~string](b []byte, ids []S) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, id)
	}
	return append(b, ']')
}

// appendEdges appends one side's edge array, role by role along the
// rows.
func appendEdges[S ~string](b []byte, roles []RoleID, rows [][]int32, ids []S, key string) []byte {
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
		}
	}
	return append(b, ']')
}

// plain reports whether encoding/json writes s as itself between
// quotes: printable ASCII with nothing it escapes.
func plain[S ~string](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendString appends s as a JSON string. A string plain does not
// cover goes through json.Marshal itself, so its escaping is
// encoding/json's by construction.
func appendString[S ~string](b []byte, s S) []byte {
	if plain(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, _ := json.Marshal(string(s)) // a string always encodes
	return append(b, q...)
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
