package rbac

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// permutations returns every ordering of keys.
func permutations(keys []string) [][]string {
	if len(keys) <= 1 {
		return [][]string{append([]string(nil), keys...)}
	}
	var out [][]string
	for i, k := range keys {
		rest := append(append([]string(nil), keys[:i]...), keys[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{k}, p...))
		}
	}
	return out
}

// reorder writes the top-level fields of a document with its keys in
// order, an empty array as null when nulls is set.
func reorder(fields map[string]json.RawMessage, order []string, nulls bool) []byte {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range order {
		if i > 0 {
			b.WriteByte(',')
		}
		v := fields[k]
		if nulls && string(v) == "[]" {
			v = json.RawMessage("null")
		}
		fmt.Fprintf(&b, "%q:%s", k, v)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// sizedDataset builds, through Add* and Assign*, a dataset with the
// given numbers of users, roles and permissions, role i holding user i
// and permission 3i (modulo their counts) when both exist.
func sizedDataset(t *testing.T, users, roles, perms int) *Dataset {
	t.Helper()
	d := NewDataset()
	for i := 0; i < users; i++ {
		if err := d.AddUser(UserID(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < roles; i++ {
		if err := d.AddRole(RoleID(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perms; i++ {
		if err := d.AddPermission(PermissionID(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < roles; i++ {
		if users > 0 {
			if err := d.AssignUser(d.Role(i), d.User(i%users)); err != nil {
				t.Fatal(err)
			}
		}
		if perms > 0 {
			if err := d.AssignPermission(d.Role(i), d.Permission(3*i%perms)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// TestReadJSONSizedArrays checks that the decoder, which sizes each ID
// slice and index once at the end of its array, lands on exactly the
// dataset the Add* calls build: the same ID slices, index tables slot
// for slot, and rows. Array lengths straddle the scratch block size,
// and every kind takes every length. The five top-level keys come in
// every order (edges before the entities they name included), each
// order on one of the datasets in turn, with its empty arrays written
// as [] or as null. A repeated ID, within the first block or across a
// block boundary, must fail with the error Add* gives for the first
// repeat.
func TestReadJSONSizedArrays(t *testing.T) {
	sizes := []int{0, 1, idBlock - 1, idBlock, idBlock + 1, 3*idBlock + 7}
	type sized struct {
		want   *Dataset
		fields map[string]json.RawMessage
	}
	var datasets []sized
	for i, n := range sizes {
		d := sizedDataset(t, n, sizes[(i+1)%len(sizes)], sizes[(i+2)%len(sizes)])
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(marshal(t, d), &fields); err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, sized{d, fields})
	}
	for i, order := range permutations(schemaKeys) {
		ds, nulls := datasets[i%len(datasets)], i/len(datasets)%2 == 1
		got, err := ReadJSON(bytes.NewReader(reorder(ds.fields, order, nulls)))
		if err != nil {
			t.Fatalf("%v, order %v, nulls %v: %v", ds.want.Stats(), order, nulls, err)
		}
		if !reflect.DeepEqual(got, ds.want) {
			t.Fatalf("%v, order %v, nulls %v: decoded dataset differs from the Add* build", ds.want.Stats(), order, nulls)
		}
	}

	t.Run("null", func(t *testing.T) {
		doc := `{"users":null,"roles":null,"permissions":null,"userAssignments":null,"permissionAssignments":null}`
		got, err := ReadJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, NewDataset()) {
			t.Fatalf("all-null document decoded to %+v, want the zero Dataset", got)
		}
	})

	// Each case repeats earlier IDs at the given positions; the first
	// repeat in document order is the one Add* reports.
	n := 2*idBlock + 5
	for _, dups := range []map[int]int{
		{10: 3},                              // within the first block
		{idBlock + 2: idBlock - 3},           // across the first block boundary
		{2*idBlock + 1: 0, n - 1: 1},         // across two boundaries
		{idBlock + 2: 5, 7: 1},               // the earlier repeat is named...
		{idBlock + 9: idBlock - 1, n - 2: 2}, // ...not the earlier original
	} {
		for _, kind := range schemaKeys[:3] {
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("%s-%d", kind, i)
			}
			for at, from := range dups {
				ids[at] = ids[from]
			}
			wantErr := addAll(kind, ids)
			if !errors.Is(wantErr, ErrDuplicate) {
				t.Fatalf("%s %v: Add* gave %v, want a duplicate", kind, dups, wantErr)
			}
			arr, err := json.Marshal(ids)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ReadJSON(strings.NewReader(fmt.Sprintf(`{%q:%s}`, kind, arr)))
			if !errors.Is(err, ErrDuplicate) || !strings.HasSuffix(err.Error(), ": "+wantErr.Error()) {
				t.Errorf("%s %v: ReadJSON err = %v, want one ending in %q", kind, dups, err, wantErr)
			}
		}
	}
}

// addAll registers ids, of the kind the top-level key names, through
// Add* into an empty dataset and returns the first error.
func addAll(key string, ids []string) error {
	d := NewDataset()
	for _, id := range ids {
		var err error
		switch key {
		case "users":
			err = d.AddUser(UserID(id))
		case "roles":
			err = d.AddRole(RoleID(id))
		case "permissions":
			err = d.AddPermission(PermissionID(id))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TestPushGrowth pins how the ID slices and row tables grow. Built from
// empty they double, so a bulk build allocates at most twice its final
// capacity. Sized to their length, as ReadJSON and Clone leave them,
// they take append's growth on the first add rather than doubling.
func TestPushGrowth(t *testing.T) {
	var s []int32
	for i := 0; i < 5000; i++ {
		s = push(s, int32(i))
		if c := cap(s); c&(c-1) != 0 || c < 8 {
			t.Fatalf("after %d pushes the capacity is %d, want a power of two, 8 at least", i+1, c)
		}
	}

	const roles = 5000
	decoded, err := ReadJSON(bytes.NewReader(marshal(t, sizedDataset(t, 1, roles, 1))))
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Dataset{"decoded": decoded, "cloned": decoded.Clone()} {
		if err := d.AddRole("added"); err != nil {
			t.Fatal(err)
		}
		for field, c := range map[string]int{"roles": cap(d.roles), "roleUsers": cap(d.roleUsers), "rolePerms": cap(d.rolePerms)} {
			if c > roles*3/2 {
				t.Errorf("%s: one role added to %d grew %s to capacity %d, want append's growth", name, roles, field, c)
			}
		}
	}
}
