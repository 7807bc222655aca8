package rbac

import (
	"bytes"
	"encoding/csv"
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

// CSV edge-list formats. Each file is a headered two-column CSV:
//
//	role,user        (user assignments)
//	role,permission  (permission assignments)
//
// Entities appearing only in one file (e.g. standalone users exported as
// a bare node list) can be added via the node CSVs, a single "id" column.

// WriteUserAssignmentsCSV writes the role,user edge list.
func (d *Dataset) WriteUserAssignmentsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"role", "user"}); err != nil {
		return fmt.Errorf("rbac: write csv header: %w", err)
	}
	for ri, row := range d.roleUsers {
		for _, ui := range row {
			if err := cw.Write([]string{string(d.roles[ri]), string(d.users[ui])}); err != nil {
				return fmt.Errorf("rbac: write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePermissionAssignmentsCSV writes the role,permission edge list.
func (d *Dataset) WritePermissionAssignmentsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"role", "permission"}); err != nil {
		return fmt.Errorf("rbac: write csv header: %w", err)
	}
	for ri, row := range d.rolePerms {
		for _, pi := range row {
			if err := cw.Write([]string{string(d.roles[ri]), string(d.perms[pi])}); err != nil {
				return fmt.Errorf("rbac: write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadAssignmentsCSV loads user and permission edge lists into a new
// dataset, creating entities on first mention. Either reader may be nil
// to skip that edge type — e.g. analysing only role–permission data.
// Edges are appended to their rows as they come and the rows sorted
// once at the end, so no edge order makes the load quadratic.
func ReadAssignmentsCSV(userEdges, permEdges io.Reader) (*Dataset, error) {
	d := NewDataset()
	if userEdges != nil {
		if err := readEdgeCSV(userEdges, "user", func(role, other string) {
			ri, ui := d.EnsureRole(RoleID(role)), d.EnsureUser(UserID(other))
			d.roleUsers[ri] = append(d.roleUsers[ri], int32(ui))
		}); err != nil {
			return nil, err
		}
	}
	if permEdges != nil {
		if err := readEdgeCSV(permEdges, "permission", func(role, other string) {
			ri, pi := d.EnsureRole(RoleID(role)), d.EnsurePermission(PermissionID(other))
			d.rolePerms[ri] = append(d.rolePerms[ri], int32(pi))
		}); err != nil {
			return nil, err
		}
	}
	sortRows(d.roleUsers)
	sortRows(d.rolePerms)
	return d, nil
}

// readEdgeCSV parses a two-column headered CSV and feeds each edge to
// add. The header's second column must match wantKind.
func readEdgeCSV(r io.Reader, wantKind string, add func(role, other string)) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("rbac: read csv header: %w", err)
	}
	if header[0] != "role" || header[1] != wantKind {
		return fmt.Errorf("rbac: csv header %v, want [role %s]", header, wantKind)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("rbac: read csv row: %w", err)
		}
		add(rec[0], rec[1])
	}
}
