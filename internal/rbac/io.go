package rbac

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// datasetJSON is the serialised form of a Dataset, as MarshalJSON
// writes it. Assignments are stored as explicit edge lists so the
// format round-trips exactly and stays diff-friendly.
type datasetJSON struct {
	Users           []UserID       `json:"users"`
	Roles           []RoleID       `json:"roles"`
	Permissions     []PermissionID `json:"permissions"`
	UserAssignments []userEdgeJSON `json:"userAssignments"`
	PermAssignments []permEdgeJSON `json:"permissionAssignments"`
}

type userEdgeJSON struct {
	Role RoleID `json:"role"`
	User UserID `json:"user"`
}

type permEdgeJSON struct {
	Role       RoleID       `json:"role"`
	Permission PermissionID `json:"permission"`
}

// MarshalJSON implements json.Marshaler with deterministic edge order.
func (d *Dataset) MarshalJSON() ([]byte, error) {
	out := datasetJSON{
		Users:           d.Users(),
		Roles:           d.Roles(),
		Permissions:     d.Permissions(),
		UserAssignments: make([]userEdgeJSON, 0, d.NumUserAssignments()),
		PermAssignments: make([]permEdgeJSON, 0, d.NumPermissionAssignments()),
	}
	for ri, set := range d.roleUsers {
		uis := make([]int, 0, len(set))
		for ui := range set {
			uis = append(uis, ui)
		}
		sort.Ints(uis)
		for _, ui := range uis {
			out.UserAssignments = append(out.UserAssignments, userEdgeJSON{
				Role: d.roles[ri],
				User: d.users[ui],
			})
		}
	}
	for ri, set := range d.rolePerms {
		pis := make([]int, 0, len(set))
		for pi := range set {
			pis = append(pis, pi)
		}
		sort.Ints(pis)
		for _, pi := range pis {
			out.PermAssignments = append(out.PermAssignments, permEdgeJSON{
				Role:       d.roles[ri],
				Permission: d.perms[pi],
			})
		}
	}
	return json.Marshal(out)
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
	for ri, set := range d.roleUsers {
		uis := make([]int, 0, len(set))
		for ui := range set {
			uis = append(uis, ui)
		}
		sort.Ints(uis)
		for _, ui := range uis {
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
	for ri, set := range d.rolePerms {
		pis := make([]int, 0, len(set))
		for pi := range set {
			pis = append(pis, pi)
		}
		sort.Ints(pis)
		for _, pi := range pis {
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
func ReadAssignmentsCSV(userEdges, permEdges io.Reader) (*Dataset, error) {
	d := NewDataset()
	if userEdges != nil {
		if err := readEdgeCSV(userEdges, "user", func(role, other string) {
			d.EnsureRole(RoleID(role))
			d.EnsureUser(UserID(other))
			_ = d.AssignUser(RoleID(role), UserID(other))
		}); err != nil {
			return nil, err
		}
	}
	if permEdges != nil {
		if err := readEdgeCSV(permEdges, "permission", func(role, other string) {
			d.EnsureRole(RoleID(role))
			d.EnsurePermission(PermissionID(other))
			_ = d.AssignPermission(RoleID(role), PermissionID(other))
		}); err != nil {
			return nil, err
		}
	}
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
